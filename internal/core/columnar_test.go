package core_test

import (
	"testing"

	"cjoin/internal/colstore"
	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/ref"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
	"cjoin/internal/storage"
)

// TestColumnStoreScanMerge exercises the §5 column-store extension
// end-to-end: the fact table is stored column-wise, the continuous scan
// is a scan/merge of only the columns the query mix accesses, and results
// must match the row-store reference.
func TestColumnStoreScanMerge(t *testing.T) {
	ds := dataset(t, 2500)

	// Copy the fact table into a column store on its own device so the
	// bytes the merge reads can be accounted separately.
	colDev := disk.New(disk.Config{})
	colTab := colstore.Create(colDev, ds.Lineorder.Heap.NumCols())
	sc := storage.NewScanner(ds.Lineorder.Heap)
	for row, ok := sc.Next(); ok; row, ok = sc.Next() {
		colTab.Append(row)
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}

	// The workload (Q2.x–Q4.x) touches the MVCC columns, the four foreign
	// keys, and the revenue/supplycost measures — 8 of 19 columns.
	needed := make([]bool, ds.Lineorder.Heap.NumCols())
	for _, c := range []int{ssb.LoXmin, ssb.LoXmax, ssb.LoCustkey, ssb.LoPartkey,
		ssb.LoSuppkey, ssb.LoOrderdate, ssb.LoRevenue, ssb.LoSupplycost} {
		needed[c] = true
	}
	merger, err := colstore.NewSchemaMerger(colTab, needed)
	if err != nil {
		t.Fatal(err)
	}

	p := startGroup(t, ds.Star, shard.Config{Shards: 1, Core: core.Config{MaxConcurrent: 16, FactSource: merger}})

	colDev.ResetStats()
	for _, q := range bindWorkload(t, ds, 8, 0.1, 29) {
		h, err := p.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		res := h.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want, err := ref.Execute(q) // reference runs over the row heap
		if err != nil {
			t.Fatal(err)
		}
		if !ref.ResultsEqual(res.Rows, want) {
			t.Fatalf("columnar scan/merge diverges: %s", q.SQL)
		}
	}

	// The merge must have read well under half of the full table bytes
	// (8 of 19 columns).
	read := colDev.Stats().BytesRead
	full := int64(ds.Lineorder.Heap.NumCols()) * ds.Lineorder.Heap.NumRows() * 8
	cycles := p.Stats().ScanCycles + 1
	if read > cycles*full*6/10 {
		t.Fatalf("scan/merge read %d bytes over %d cycles of a %d-byte table", read, cycles, full)
	}
}

func TestFactSourceValidation(t *testing.T) {
	ds := dataset(t, 500)
	colTab := colstore.Create(disk.NewMem(), 3) // wrong width
	m, err := colstore.NewMerger(colTab, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.New(ds.Star, shard.Config{Core: core.Config{FactSource: m}}); err == nil {
		t.Fatal("mismatched FactSource width must be rejected")
	}

	part, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 500, Seed: 1, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	full := colstore.Create(disk.NewMem(), part.Lineorder.Heap.NumCols())
	full.Append(make([]int64, part.Lineorder.Heap.NumCols()))
	fm, err := colstore.NewMerger(full, seqInts(part.Lineorder.Heap.NumCols()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.New(part.Star, shard.Config{Core: core.Config{FactSource: fm}}); err == nil {
		t.Fatal("FactSource with a partitioned star must be rejected")
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
