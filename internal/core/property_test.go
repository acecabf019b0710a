package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cjoin/internal/catalog"
	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
)

// TestRandomStarEquivalence is the repository's broadest property test:
// for randomized star schemas, data, and query batches, CJOIN's results
// must equal the naive reference executor's for every query. It fuzzes
// schema width, data skew, predicate shape, grouping, and concurrency in
// one loop. A batch is one fact page, so the narrow-vs-wide fact schema
// draw is also the batch-capacity draw (about 200 rows per page against
// about 20).
func TestRandomStarEquivalence(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		pad := []int{0, 40}[rng.Intn(2)]
		star := randomStar(rng, pad)
		cfg := core.Config{
			MaxConcurrent: 16,
			Workers:       rng.Intn(4) + 1,
			Layout:        []core.Layout{core.Horizontal, core.Vertical, core.Hybrid}[rng.Intn(3)],
		}
		t.Logf("trial %d: %d rows/page, %d workers, %s", trial, star.Fact.Heap.RowsPerPage(), cfg.Workers, cfg.Layout)
		p := startGroup(t, star, shard.Config{Shards: 1, Core: cfg})

		nq := rng.Intn(6) + 2
		type pending struct {
			q *query.Bound
			h core.Handle
		}
		var ps []pending
		for i := 0; i < nq; i++ {
			q, err := query.ParseBind(randomQuery(rng, star), star)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			h, err := p.Submit(q)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, pending{q: q, h: h})
		}
		for _, pe := range ps {
			res := pe.h.Wait()
			if res.Err != nil {
				t.Fatalf("trial %d: %v", trial, res.Err)
			}
			want, err := ref.Execute(pe.q)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.ResultsEqual(res.Rows, want) {
				t.Fatalf("trial %d diverges on %s", trial, pe.q.SQL)
			}
		}
		p.Stop()
	}
}

// randomStar builds a star with 1-3 dimensions, random cardinalities and
// skewed fact data; pad widens the fact schema by that many columns no
// query reads, shrinking the rows a page (and so a batch) holds.
func randomStar(rng *rand.Rand, pad int) *catalog.Star {
	dev := disk.NewMem()
	ndims := rng.Intn(3) + 1
	var dims []*catalog.Table
	var fks, keys []int
	factCols := []catalog.Column{{Name: "xmin"}, {Name: "xmax"}}
	for d := 0; d < ndims; d++ {
		name := fmt.Sprintf("d%d", d)
		dim := catalog.NewTable(dev, name, 0, []catalog.Column{
			{Name: fmt.Sprintf("k%d", d)},
			{Name: fmt.Sprintf("attr%d", d)},
			{Name: fmt.Sprintf("grp%d", d)},
		})
		card := rng.Int63n(40) + 3
		for k := int64(0); k < card; k++ {
			dim.Heap.Append([]int64{k, rng.Int63n(10), rng.Int63n(4)})
		}
		dims = append(dims, dim)
		factCols = append(factCols, catalog.Column{Name: fmt.Sprintf("fk%d", d)})
		fks = append(fks, 2+d)
		keys = append(keys, 0)
	}
	for c := 0; c < pad; c++ {
		factCols = append(factCols, catalog.Column{Name: fmt.Sprintf("pad%d", c)})
	}
	factCols = append(factCols, catalog.Column{Name: "m"})
	fact := catalog.NewTable(dev, "f", 2, factCols)
	nrows := rng.Int63n(3000) + 100
	for i := int64(0); i < nrows; i++ {
		row := make([]int64, len(factCols))
		for d := 0; d < ndims; d++ {
			card := dims[d].Heap.NumRows()
			// Skew: sometimes reference keys outside the dimension to
			// exercise probe misses on the key/foreign-key contract.
			row[2+d] = rng.Int63n(card + card/3 + 1)
		}
		for c := 0; c < pad; c++ {
			row[2+ndims+c] = rng.Int63()
		}
		row[len(factCols)-1] = rng.Int63n(1000) - 500
		fact.Heap.Append(row)
	}
	star, err := catalog.NewStar(fact, dims, fks, keys)
	if err != nil {
		panic(err)
	}
	return star
}

// randomQuery renders a random star query over the schema.
func randomQuery(rng *rand.Rand, star *catalog.Star) string {
	ndims := len(star.Dims)
	used := make([]bool, ndims)
	nref := rng.Intn(ndims) + 1
	for i := 0; i < nref; i++ {
		used[rng.Intn(ndims)] = true
	}
	from := "f"
	where := ""
	groupBy := ""
	for d, u := range used {
		if !u {
			continue
		}
		from += fmt.Sprintf(", d%d", d)
		if where != "" {
			where += " AND "
		}
		where += fmt.Sprintf("fk%d = k%d", d, d)
		switch rng.Intn(3) {
		case 0:
			where += fmt.Sprintf(" AND attr%d < %d", d, rng.Intn(11))
		case 1:
			where += fmt.Sprintf(" AND attr%d BETWEEN %d AND %d", d, rng.Intn(5), rng.Intn(6)+5)
		}
		if groupBy == "" && rng.Intn(2) == 0 {
			groupBy = fmt.Sprintf("grp%d", d)
		}
	}
	if rng.Intn(3) == 0 {
		where += fmt.Sprintf(" AND m > %d", rng.Intn(400)-200)
	}
	sel := "SUM(m), COUNT(*), MIN(m), MAX(m), AVG(m)"
	tail := ""
	if groupBy != "" {
		sel += ", " + groupBy
		tail = " GROUP BY " + groupBy + " ORDER BY " + groupBy
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s%s", sel, from, where, tail)
}

func TestETAProgressesToZero(t *testing.T) {
	ds := dataset(t, 30000)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	q := bindWorkload(t, ds, 1, 0.2, 71)[0]
	h, err := p.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	sawEstimate := false
	for i := 0; i < 10000; i++ {
		if eta, ok := h.ETA(); ok && eta > 0 {
			sawEstimate = true
			break
		}
	}
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if !sawEstimate {
		t.Log("query finished before an ETA was observable (fast machine); progress path still covered")
	}
	if eta, ok := h.ETA(); !ok || eta != 0 {
		t.Fatalf("completed query ETA = %v,%v", eta, ok)
	}
}
