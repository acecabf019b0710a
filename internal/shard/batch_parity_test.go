package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// batchTexts builds a randomized repeated-template workload: randomized
// SSB queries with AVG/LIMIT mutations, where roughly half the entries
// duplicate an earlier text verbatim — the dashboard-style pattern the
// predicate-scan cache and batch-local memo exist for. Duplicates are
// re-parsed, so structurally-equal-but-distinct ASTs must unify by
// fingerprint, not pointer identity.
func batchTexts(rng *rand.Rand, w *ssb.Workload, n int) []string {
	var texts []string
	for len(texts) < n {
		if len(texts) > 0 && rng.Intn(2) == 0 {
			texts = append(texts, texts[rng.Intn(len(texts))])
			continue
		}
		_, text := w.Next()
		switch rng.Intn(3) {
		case 0:
			text = strings.Replace(text, "SUM(", "AVG(", 1)
		case 1:
			text = fmt.Sprintf("%s LIMIT %d", text, rng.Intn(5)+1)
		}
		texts = append(texts, text)
	}
	return texts
}

// runBatchParity binds texts fresh, submits them in batches of
// batchSize through the executor's SubmitBatch, and checks every result
// bit-exact against the naive reference executor.
func runBatchParity(t *testing.T, label string, ex core.Executor, ds *ssb.Dataset, texts []string, batchSize int) {
	t.Helper()
	for lo := 0; lo < len(texts); lo += batchSize {
		hi := lo + batchSize
		if hi > len(texts) {
			hi = len(texts)
		}
		qs := make([]*query.Bound, 0, hi-lo)
		for _, text := range texts[lo:hi] {
			b, err := query.ParseBind(text, ds.Star)
			if err != nil {
				t.Fatalf("%s: %v\nquery: %s", label, err, text)
			}
			b.Snapshot = ds.Txn.Begin()
			qs = append(qs, b)
		}
		handles, errs, err := ex.SubmitBatch(context.Background(), qs)
		if err != nil {
			t.Fatalf("%s: batch [%d,%d): %v", label, lo, hi, err)
		}
		for i, h := range handles {
			if errs[i] != nil {
				t.Fatalf("%s: query %d: %v", label, lo+i, errs[i])
			}
			res := h.Wait()
			if res.Err != nil {
				t.Fatalf("%s: query %d: %v", label, lo+i, res.Err)
			}
			want, err := ref.Execute(qs[i])
			if err != nil {
				t.Fatalf("%s: query %d ref: %v", label, lo+i, err)
			}
			if !ref.ResultsEqual(res.Rows, want) {
				t.Fatalf("%s: query %d diverges from ref\nquery: %s\n got: %s\nwant: %s",
					label, lo+i, texts[lo+i], dump(res.Rows), dump(want))
			}
		}
	}
}

// TestBatchSubmitParityRandomSSB is the batch path's end-to-end
// exactness property: randomized repeated-template SSB queries admitted
// through SubmitBatch — on a single pipeline and on page-strided shard
// groups, predicate cache on — return results bit-identical to the
// naive reference executor. Batch size exceeds some batches' distinct
// templates, so the batch-local memo and the shared cache both carry
// real weight in the admissions under test.
func TestBatchSubmitParityRandomSSB(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.Config{MaxConcurrent: 16, Workers: 2}
	texts := batchTexts(rand.New(rand.NewSource(23)), ssb.NewWorkload(ds, 0.05, 19), 20)

	single := openGroup(t, ds, 1, ccfg)
	runBatchParity(t, "single", single, ds, texts, 5)

	for _, n := range []int{2, 3} {
		g, err := shard.New(ds.Star, shard.Config{Shards: n, Core: ccfg})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		t.Cleanup(g.Stop)
		runBatchParity(t, fmt.Sprintf("group(%d)", n), g, ds, texts, 5)
		if st := g.PlaneStats(); st.BatchQueries == 0 || st.BatchAdmits == 0 {
			t.Fatalf("group(%d): batch path not exercised: %+v", n, st)
		}
	}
}

// TestBatchSubmitParityPartitionedSSB extends the property to
// range-partitioned stars: partition-dealt groups must keep §5 pruning
// exact when whole batches are admitted in one plane round (the
// SelectedKeyRange pruning probe reads the same stores the batch
// installed into).
func TestBatchSubmitParityPartitionedSSB(t *testing.T) {
	const parts = 4
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 3000, Seed: 9, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.Config{MaxConcurrent: 16, Workers: 2}
	rng := rand.New(rand.NewSource(31))
	texts := batchTexts(rng, ssb.NewWorkload(ds, 0.05, 29), 12)
	// Selective date windows so pruning decisions ride inside batches.
	keys := ds.DateKeys
	for i := 0; i < 6; i++ {
		lo := rng.Intn(len(keys))
		hi := lo + rng.Intn(len(keys)/2) + 1
		if hi >= len(keys) {
			hi = len(keys) - 1
		}
		texts = append(texts, fmt.Sprintf(
			"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d GROUP BY d_year ORDER BY d_year",
			keys[lo], keys[hi]))
	}

	for _, n := range []int{2, parts} {
		g, err := shard.New(ds.Star, shard.Config{Shards: n, Core: ccfg})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		t.Cleanup(g.Stop)
		runBatchParity(t, fmt.Sprintf("partitioned group(%d)", n), g, ds, texts, 4)
	}
}
