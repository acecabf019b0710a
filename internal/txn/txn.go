// Package txn provides the snapshot-isolation bookkeeping assumed in
// §2.1 and exercised by §3.5: every transaction is tagged with a snapshot
// identifier, fact tuples carry xmin/xmax system columns, and a tuple is
// visible to a snapshot if it was committed at or before the snapshot and
// not deleted by it.
//
// Manager is also the one writer: Append, Delete and Update are the only
// commits the server, the public API and the SSB dataset make, so the
// stamping rules below have one definition.
package txn

import (
	"fmt"
	"sync"

	"cjoin/internal/catalog"
)

// Snapshot identifies a committed database state. Snapshot s sees every
// commit with id <= s.
type Snapshot uint64

// Manager issues snapshots and serializes commits. The zero value is
// ready to use with an initial committed state of 0.
type Manager struct {
	mu  sync.Mutex
	cur uint64
}

// Begin returns a snapshot of the current committed state.
func (m *Manager) Begin() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Snapshot(m.cur)
}

// Commit runs apply with a fresh commit id and publishes it. The commit id
// becomes visible to snapshots taken after apply returns. apply must stamp
// xmin (and xmax for deletions) with the given id.
func (m *Manager) Commit(apply func(commitID uint64)) Snapshot {
	snap, _ := m.CommitErr(func(id uint64) error {
		apply(id)
		return nil
	})
	return snap
}

// CommitErr runs apply with a fresh commit id and publishes it only if
// apply succeeds. On error the commit id is not published: Begin continues
// to return the previous snapshot and the same id is reissued to the next
// commit, so a failed apply leaves no phantom committed state behind.
// apply must either stamp every tuple it touches with the given id or
// leave the heap untouched when it returns an error.
func (m *Manager) CommitErr(apply func(commitID uint64) error) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.cur + 1
	if err := apply(id); err != nil {
		return 0, err
	}
	m.cur = id
	return Snapshot(id), nil
}

// The fact-table system columns every versioned row starts with.
const (
	xminCol = 0
	xmaxCol = 1
)

// Append commits rows onto fact table t as one all-or-nothing
// transaction. Each row is a full stored row (system columns included);
// Append stamps xmin with the commit id and clears xmax, so the rows
// become visible to exactly the snapshots taken after it returns. A row
// of the wrong width fails the commit before the heap is touched. t must
// carry xmin/xmax (catalog.Star.WritableFact vets that).
func (m *Manager) Append(t *catalog.Table, rows [][]int64) (Snapshot, error) {
	for i, row := range rows {
		if len(row) != len(t.Columns) {
			return 0, fmt.Errorf("row %d: %s stores %d columns, got %d", i, t.Name, len(t.Columns), len(row))
		}
	}
	return m.CommitErr(func(id uint64) error {
		for _, row := range rows {
			row[xminCol], row[xmaxCol] = int64(id), 0
		}
		t.Heap.AppendBatch(rows)
		return nil
	})
}

// Delete commits the deletion of fact row idx of t by stamping its xmax.
// A row that already carries an xmax is refused: overwriting it with a
// later commit id would resurrect the row for the snapshots between the
// two deletes. A refused or out-of-range delete publishes no commit id.
func (m *Manager) Delete(t *catalog.Table, idx int64) (Snapshot, error) {
	return m.CommitErr(func(id uint64) error {
		row, err := t.Heap.RowAt(idx)
		if err != nil {
			return err
		}
		if row[xmaxCol] != 0 {
			return fmt.Errorf("%s row %d already deleted at commit %d", t.Name, idx, row[xmaxCol])
		}
		return t.Heap.UpdateCol(idx, xmaxCol, int64(id))
	})
}

// Update commits an in-place rewrite of cell (idx, col) of t — the
// dimension write. It is unversioned: the heap's mutation counter moves,
// so memoized dimension scans go stale, but no snapshot can see the old
// value afterwards. System columns are never rewritten this way.
func (m *Manager) Update(t *catalog.Table, idx int64, col int, v int64) (Snapshot, error) {
	if col < t.Hidden {
		return 0, fmt.Errorf("column %d of %s is a system column", col, t.Name)
	}
	return m.CommitErr(func(uint64) error {
		return t.Heap.UpdateCol(idx, col, v)
	})
}

// Visible reports whether a tuple with the given xmin/xmax system column
// values is visible to snapshot s. xmax == 0 means "not deleted".
func Visible(xmin, xmax int64, s Snapshot) bool {
	return uint64(xmin) <= uint64(s) && (xmax == 0 || uint64(xmax) > uint64(s))
}
