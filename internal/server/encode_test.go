package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"cjoin/internal/agg"
	"cjoin/internal/catalog"
	"cjoin/internal/expr"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/ssb"
)

// boxedBody is the reference /result body: writeJSON of the
// ResultResponse built from DecodeResults.
func boxedBody(id string, b *query.Bound, rows []agg.Result, elapsed int64) []byte {
	out := ResultResponse{
		ID:            id,
		State:         "done",
		Columns:       append(append([]string{}, b.GroupNames...), b.AggNames...),
		Rows:          DecodeResults(b, rows),
		RowCount:      len(rows),
		ElapsedMillis: elapsed,
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, out)
	return rec.Body.Bytes()
}

func streamedBody(t testing.TB, id string, b *query.Bound, rows []agg.Result, elapsed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeResult(&buf, id, b, rows, elapsed); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultEncodingMatchesJSON pins the streaming encoder to the boxed
// encoding/json path byte for byte, for every SSB template (the shapes
// shared_scan and wide_results run), an AVG/COUNT/MIN/MAX mix and an
// empty result.
func TestResultEncodingMatchesJSON(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var sqls []string
	for _, tpl := range ssb.Templates() {
		sqls = append(sqls, ds.Instantiate(tpl, 0.3, rng), ds.Instantiate(tpl, 1, rng))
	}
	sqls = append(sqls,
		`SELECT AVG(lo_revenue) AS avg_rev, COUNT(*) AS n, MIN(lo_discount) AS lo, MAX(lo_quantity) AS hi, c_nation
			FROM lineorder, customer WHERE lo_custkey = c_custkey GROUP BY c_nation ORDER BY c_nation`,
		`SELECT AVG(lo_discount) AS d, COUNT(*) AS n FROM lineorder`,
		`SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date
			WHERE lo_orderdate = d_datekey AND d_year = 1890 GROUP BY d_year`,
	)
	var sawEmpty bool
	for _, text := range sqls {
		b, err := query.ParseBind(text, ds.Star)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		rows, err := ref.Execute(b)
		if err != nil {
			t.Fatal(err)
		}
		sawEmpty = sawEmpty || len(rows) == 0
		want := boxedBody("q-000042", b, rows, 17)
		if got := streamedBody(t, "q-000042", b, rows, 17); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %.300s\nwant %.300s", text, got, want)
		}
	}
	if !sawEmpty {
		t.Fatal("no query produced an empty result")
	}
}

// fuzzStar is a one-dimension star for FuzzResultEncoding: dimension
// columns 0 and 1 are dictionary-encoded with the fuzzed strings, column
// 2 is an integer column.
func fuzzStar(strs ...string) *catalog.Star {
	d0, d1 := catalog.NewDict(), catalog.NewDict()
	for _, s := range strs {
		d0.Encode(s)
	}
	for i := len(strs) - 1; i >= 0; i-- {
		d1.Encode(strs[i])
	}
	dim := &catalog.Table{Name: "dim", Dicts: []*catalog.Dict{d0, d1, nil}}
	return &catalog.Star{Fact: &catalog.Table{Name: "fact"}, Dims: []*catalog.Table{dim}}
}

// FuzzResultEncoding checks the streaming /result encoder against
// encoding/json of DecodeResults byte for byte, over fuzzed dictionary
// strings and column names (invalid UTF-8, U+2028/U+2029, control
// characters, '"' and '\\'), 0–3 group and aggregate columns, and AVG
// sum/count pairs — plus the float formatting on its own, across the
// 1e-6 and 1e21 switches to exponent form.
func FuzzResultEncoding(f *testing.F) {
	// A wide_results-shaped row set: Q3.2's c_city, s_city, d_year with
	// one SUM.
	f.Add("UNITED ST1", "CHINA    4", "ASIA", "revenue", uint8(3), uint8(1), uint8(0), uint8(12), int64(912345678), int64(3), int64(77), int64(2), 4.5e6)
	f.Add("MFGR#2221", "a\"b\\c", "\u2028\u2029\x00\x1f\x7f", "é", uint8(2), uint8(3), uint8(5), uint8(4), int64(1), int64(3), int64(-7), int64(1000000000), 1e21)
	f.Add("\xff\xfe", "<&>", "", "\t\n\r\b\f", uint8(1), uint8(2), uint8(3), uint8(0), int64(0), int64(0), int64(1), int64(9e18), 9.99e-7)
	f.Add("x", "y", "z", "", uint8(0), uint8(0), uint8(0), uint8(3), int64(5), int64(5), int64(5), int64(5), -1e-6)
	f.Fuzz(func(t *testing.T, s0, s1, s2, col string, ng, na, avgMask, nrows uint8,
		sum0, cnt0, sum1, cnt1 int64, x float64) {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			want, err := json.Marshal(x)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendFloat(nil, x); !bytes.Equal(got, want) {
				t.Fatalf("appendFloat(%v) = %s, encoding/json %s", x, got, want)
			}
		}

		b := &query.Bound{Schema: fuzzStar(s0, s1, s2)}
		for gi := 0; gi < int(ng%4); gi++ {
			b.GroupBy = append(b.GroupBy, expr.Col{Slot: 1, Idx: gi})
			b.GroupNames = append(b.GroupNames, col+s0[:len(s0)%2])
		}
		for ai := 0; ai < int(na%4); ai++ {
			fn := agg.Sum
			if avgMask&(1<<ai) != 0 {
				fn = agg.Avg
			}
			b.Aggs = append(b.Aggs, agg.Spec{Fn: fn})
			b.AggNames = append(b.AggNames, col)
		}
		sums, cnts := [2]int64{sum0, sum1}, [2]int64{cnt0, cnt1}
		rows := make([]agg.Result, int(nrows%16))
		for i := range rows {
			r := agg.Result{
				Group:  make([]int64, len(b.GroupBy)),
				Ints:   make([]int64, len(b.Aggs)),
				Counts: make([]int64, len(b.Aggs)),
			}
			for gi := range r.Group {
				r.Group[gi] = int64(i+gi) % 5 // ids 3 and 4 miss the dictionaries
			}
			for ai := range r.Ints {
				r.Ints[ai] = sums[(i+ai)%2] >> (i % 64)
				r.Counts[ai] = cnts[(i+ai)%2] >> (i % 64)
			}
			rows[i] = r
		}
		want := boxedBody(s1, b, rows, int64(nrows))
		if got := streamedBody(t, s1, b, rows, int64(nrows)); !bytes.Equal(got, want) {
			t.Fatalf("streamed body differs:\n got %q\nwant %q", got, want)
		}
	})
}
