package storage

import (
	"testing"

	"cjoin/internal/disk"
)

func benchHeap(b *testing.B) *HeapFile {
	b.Helper()
	h := CreateHeap(disk.NewMem(), 19)
	for i := int64(0); i < 20000; i++ {
		row := make([]int64, 19)
		row[7] = i / 8 // clustered date-like column
		row[10] = i % 50
		row[14] = i * 37 % 10000
		h.Append(row)
	}
	return h
}

// BenchmarkScanRaw measures the raw sequential scan the continuous scan
// performs every cycle.
func BenchmarkScanRaw(b *testing.B) {
	h := benchHeap(b)
	dst := make([]int64, h.RowsPerPage()*19)
	scratch := make([]byte, PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < h.NumPages(); p++ {
			if _, err := h.ReadPage(p, dst, scratch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(h.NumPages()) * PageSize)
}

func BenchmarkAppend(b *testing.B) {
	h := CreateHeap(disk.NewMem(), 19)
	row := make([]int64, 19)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Append(row)
	}
}
