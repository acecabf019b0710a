package core_test

import (
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
	"cjoin/internal/storage"
)

func TestFactSourceValidation(t *testing.T) {
	ds := dataset(t, 500)
	narrow := storage.CreateHeap(disk.NewMem(), 3)
	if _, err := shard.New(ds.Star, shard.Config{Core: core.Config{FactSource: narrow}}); err == nil {
		t.Fatal("mismatched FactSource width must be rejected")
	}

	part, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 500, Seed: 1, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	full := storage.CreateHeap(disk.NewMem(), part.Lineorder.Heap.NumCols())
	full.Append(make([]int64, part.Lineorder.Heap.NumCols()))
	if _, err := shard.New(part.Star, shard.Config{Core: core.Config{FactSource: full}}); err == nil {
		t.Fatal("FactSource with a partitioned star must be rejected")
	}
}
