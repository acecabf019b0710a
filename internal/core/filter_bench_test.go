package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cjoin/internal/bitvec"
	"cjoin/internal/catalog"
	"cjoin/internal/disk"
	"cjoin/internal/expr"
)

// The FilterProbe benchmarks isolate the CJOIN hot loop — one hash probe
// and one bitwise AND per fact tuple per dimension (§3.2.2) — outside
// the pipeline, across the bit-vector width sweep. Setup admits a query
// mix where every probe hits (select-all predicates), so the batch is a
// fixed point of filterBatch and each iteration measures the pure probe
// path. Sub-benchmark names keep the table=dimht label so BENCH_*.json
// snapshots stay comparable across PRs.

const (
	benchDimRows  = 1 << 15 // 32768 stored entries: larger than L2, probe misses cache
	benchBatchLen = 4096
)

// predTrue selects every dimension row (v >= 0; v is k%5).
func predTrue() expr.Node {
	return expr.Bin{Op: expr.Ge, L: expr.Col{Slot: 0, Idx: 1, Name: "v"}, R: expr.Const{V: 0}}
}

// benchDimState builds a dimension Filter with benchDimRows stored
// entries and an admitted mix of 12 referencing and 4 non-referencing
// queries.
func benchDimState(b *testing.B, maxConc int) *dimState {
	b.Helper()
	dev := disk.NewMem()
	fact := catalog.NewTable(dev, "f", 0, []catalog.Column{{Name: "fk"}, {Name: "m"}})
	dim := catalog.NewTable(dev, "d", 0, []catalog.Column{{Name: "k"}, {Name: "v"}})
	for k := int64(0); k < benchDimRows; k++ {
		dim.Heap.Append([]int64{k, k % 5})
	}
	star, err := catalog.NewStar(fact, []*catalog.Table{dim}, []int{0}, []int{0})
	if err != nil {
		b.Fatal(err)
	}
	ds := newTestDimState(star, 0, maxConc)
	for slot := 0; slot < 12; slot++ {
		if err := ds.admit(slot, predTrue()); err != nil {
			b.Fatal(err)
		}
	}
	for slot := 12; slot < 16; slot++ {
		ds.admit(slot, nil)
	}
	return ds
}

// benchBatch fills a batch whose tuples all hit the table and carry every
// active query bit, so filterBatch leaves the batch unchanged.
func benchBatch(maxConc int) *batch {
	rng := rand.New(rand.NewSource(42))
	bt := newBatch(benchBatchLen, 2, bitvec.Words(maxConc), 1)
	for i := 0; i < benchBatchLen; i++ {
		row, bv := bt.push()
		row[0] = rng.Int63n(benchDimRows)
		for slot := 0; slot < 16; slot++ {
			bv.Set(slot)
		}
	}
	return bt
}

func BenchmarkFilterProbe(b *testing.B) {
	for _, maxConc := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("mc=%d/table=dimht", maxConc), func(b *testing.B) {
			ds := benchDimState(b, maxConc)
			bt := benchBatch(maxConc)
			b.SetBytes(benchBatchLen) // throughput in tuples: 1 "byte" = 1 tuple
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds.filterBatch(bt)
			}
			if len(bt.sel) != benchBatchLen {
				b.Fatalf("batch not a fixed point: %d rows", len(bt.sel))
			}
		})
	}
}

// BenchmarkFilterProbeParallel runs the same probe loop from concurrent
// Stage workers sharing one Filter.
func BenchmarkFilterProbeParallel(b *testing.B) {
	b.Run("table=dimht", func(b *testing.B) {
		ds := benchDimState(b, 64)
		b.SetBytes(benchBatchLen)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			bt := benchBatch(64)
			for pb.Next() {
				ds.filterBatch(bt)
			}
		})
	})
}

// BenchmarkFilterProbeSkip measures the probe-skip path (§3.2.2): tuples
// relevant only to non-referencing queries bypass the hash probe. On the
// single-word fast path this is one AND-NOT and one compare per tuple.
func BenchmarkFilterProbeSkip(b *testing.B) {
	b.Run("table=dimht", func(b *testing.B) {
		ds := benchDimState(b, 64)
		bt := newBatch(benchBatchLen, 2, bitvec.Words(64), 1)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < benchBatchLen; i++ {
			row, bv := bt.push()
			row[0] = rng.Int63n(benchDimRows)
			bv.Set(12 + i%4) // non-referencing slots only
		}
		b.SetBytes(benchBatchLen)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds.filterBatch(bt)
		}
		if st := ds.stats(); st.Probes != 0 {
			b.Fatalf("skip path probed %d times", st.Probes)
		}
	})
}
