package ssb

import (
	"math/rand"

	"cjoin/internal/txn"
)

// AppendFact appends n new fact rows in a single snapshot-isolated commit
// (§3.5: updates reference only the fact table) and returns the snapshot
// at which they become visible. Partitioned datasets are static and
// reject appends.
func (ds *Dataset) AppendFact(n int, rng *rand.Rand) (txn.Snapshot, error) {
	fact, err := ds.Star.WritableFact()
	if err != nil {
		return 0, err
	}
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = ds.randFactRow(rng)
	}
	return ds.Txn.Append(fact, rows)
}

// DeleteFact marks the fact row at index idx deleted in a new commit and
// returns the snapshot at which the deletion is visible. A failed delete
// (out-of-range index, already-deleted row, compressed page) does not
// publish a commit id: Begin continues to return the previous snapshot.
func (ds *Dataset) DeleteFact(idx int64) (txn.Snapshot, error) {
	fact, err := ds.Star.WritableFact()
	if err != nil {
		return 0, err
	}
	return ds.Txn.Delete(fact, idx)
}

// randFactRow builds one fact row with xmin/xmax zeroed; the commit
// stamps the MVCC columns.
func (ds *Dataset) randFactRow(rng *rand.Rand) []int64 {
	t := ds.Lineorder
	prio, _ := t.EncodeStr(LoOrderpriority, priorities[rng.Intn(len(priorities))])
	ship, _ := t.EncodeStr(LoShipmode, shipmodes[rng.Intn(len(shipmodes))])
	quantity := int64(rng.Intn(50) + 1)
	price := int64(rng.Intn(9900) + 100)
	discount := int64(rng.Intn(11))
	return []int64{
		0, 0,
		rng.Int63n(1 << 30),
		rng.Int63n(7),
		rng.Int63n(ds.NumCustomers) + 1,
		rng.Int63n(ds.NumParts) + 1,
		rng.Int63n(ds.NumSuppliers) + 1,
		ds.DateKeys[rng.Intn(len(ds.DateKeys))],
		prio,
		int64(rng.Intn(2)),
		quantity,
		price,
		price * quantity,
		discount,
		price * (100 - discount) / 100,
		price * 6 / 10,
		int64(rng.Intn(9)),
		ds.DateKeys[rng.Intn(len(ds.DateKeys))],
		ship,
	}
}
