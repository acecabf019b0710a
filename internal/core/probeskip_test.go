package core_test

import (
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/ssb"
)

func TestProbeSkipMatchesReference(t *testing.T) {
	// The probe-skip test (§3.2.2) is unconditional: a tuple whose
	// bit-vector has no query referencing a Filter's dimension bypasses
	// its probe. Concurrent queries that each reference only some
	// dimensions must still match the reference executor.
	ds := dataset(t, 2000)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 16})
	qs := bindWorkload(t, ds, 8, 0.1, 13)
	hs := make([]core.Handle, len(qs))
	for i, q := range qs {
		h, err := p.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	for i, h := range hs {
		res := h.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want, err := ref.Execute(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("probe-skip diverges: %s", qs[i].SQL)
		}
	}
}

func TestProbeSkipReducesProbes(t *testing.T) {
	// Deterministic skip scenario: one query keeps the part filter
	// active but carries a fact predicate that never holds (lo_quantity
	// is always >= 1), so no tuple ever has its bit. A concurrent
	// date-only query keeps tuples flowing. With the probe-skip test
	// (§3.2.2), every tuple reaching the part filter bypasses it
	// (bτ ∧ ¬b_part == 0): the filter sees tuples and probes none.
	//
	// A slow device guarantees the two queries' scan cycles overlap:
	// one cycle takes ~20 ms, admissions take ~1 ms.
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 2000, Seed: 101,
		Disk: disk.Config{SeqBytesPerSec: 16 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 8})
	qDate, err := query.ParseBind(
		"SELECT COUNT(*) FROM lineorder, date WHERE lo_orderdate = d_datekey", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	qPart, err := query.ParseBind(
		"SELECT COUNT(*) FROM lineorder, part WHERE lo_partkey = p_partkey AND lo_quantity < 1", ds.Star)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := p.Submit(qDate)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Submit(qPart)
	if err != nil {
		t.Fatal(err)
	}
	if res := h2.Wait(); res.Err != nil || len(res.Rows) != 0 && res.Rows[0].Ints[0] != 0 {
		t.Fatalf("impossible predicate returned rows: %v err=%v", res.Rows, res.Err)
	}
	if res := h1.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	var part core.FilterStats
	for _, f := range p.Stats().Filters {
		if f.Dimension == "part" {
			part = f
		}
	}
	if part.TuplesIn == 0 {
		t.Fatalf("part filter saw no tuples: %+v", part)
	}
	if part.Probes != 0 {
		t.Fatalf("probe-skip should eliminate part probes, saw %d of %d tuples", part.Probes, part.TuplesIn)
	}
}
