package txn

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"cjoin/internal/catalog"
	"cjoin/internal/disk"
)

func TestVisibility(t *testing.T) {
	cases := []struct {
		xmin, xmax int64
		snap       Snapshot
		want       bool
	}{
		{0, 0, 0, true},  // loaded at time 0, never deleted
		{1, 0, 0, false}, // committed after snapshot
		{1, 0, 1, true},  // committed at snapshot
		{1, 3, 2, true},  // deleted later
		{1, 3, 3, false}, // deleted at commit 3: snapshot 3 no longer sees it
		{1, 3, 4, false}, // deleted before snapshot
		{5, 0, 99, true}, // old insert
		{5, 5, 4, false}, // insert+delete in same commit, earlier snapshot
		{5, 5, 5, false}, // insert+delete in same commit
	}
	for _, c := range cases {
		if got := Visible(c.xmin, c.xmax, c.snap); got != c.want {
			t.Errorf("Visible(%d,%d,%d) = %v, want %v", c.xmin, c.xmax, c.snap, got, c.want)
		}
	}
}

func TestCommitAdvancesSnapshot(t *testing.T) {
	var m Manager
	if m.Begin() != 0 {
		t.Fatal("initial snapshot must be 0")
	}
	var stamped uint64
	s := m.Commit(func(id uint64) { stamped = id })
	if stamped != 1 || s != 1 {
		t.Fatalf("first commit id %d snapshot %d", stamped, s)
	}
	if m.Begin() != 1 {
		t.Fatal("Begin must observe the commit")
	}
}

func TestCommitSerialization(t *testing.T) {
	var m Manager
	const n = 100
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Commit(func(id uint64) {
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate commit id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	if m.Begin() != n {
		t.Fatalf("final snapshot %d, want %d", m.Begin(), n)
	}
	for id := uint64(1); id <= n; id++ {
		if !seen[id] {
			t.Fatalf("commit id %d skipped", id)
		}
	}
}

// A failed commit must not advance the published snapshot: before the
// fix, callers that plumbed an error out of the apply callback (e.g.
// ssb.DeleteFact on an out-of-range index) still left cur advanced, so
// later Begin() snapshots observed a phantom committed state with no
// tuples stamped at that id.
func TestFailedCommitDoesNotAdvanceSnapshot(t *testing.T) {
	var m Manager
	snap, err := m.CommitErr(func(id uint64) error {
		if id != 1 {
			t.Fatalf("first commit id = %d, want 1", id)
		}
		return nil
	})
	if err != nil || snap != 1 {
		t.Fatalf("CommitErr = (%d, %v), want (1, nil)", snap, err)
	}
	if got := m.Begin(); got != 1 {
		t.Fatalf("Begin after commit = %d, want 1", got)
	}

	boom := errors.New("apply failed")
	snap, err = m.CommitErr(func(id uint64) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("CommitErr error = %v, want %v", err, boom)
	}
	if snap != 0 {
		t.Fatalf("failed CommitErr snapshot = %d, want 0", snap)
	}
	if got := m.Begin(); got != 1 {
		t.Fatalf("Begin after failed commit = %d, want 1 (phantom commit published)", got)
	}

	// The id a failed commit tried to use is reissued to the next commit:
	// the committed sequence has no holes.
	snap, err = m.CommitErr(func(id uint64) error {
		if id != 2 {
			t.Fatalf("commit id after failure = %d, want 2", id)
		}
		return nil
	})
	if err != nil || snap != 2 {
		t.Fatalf("CommitErr after failure = (%d, %v), want (2, nil)", snap, err)
	}
	if got := m.Begin(); got != 2 {
		t.Fatalf("Begin = %d, want 2", got)
	}
}

func TestSnapshotStability(t *testing.T) {
	// A reader's snapshot must not see rows committed after Begin.
	var m Manager
	m.Commit(func(uint64) {}) // commit 1
	reader := m.Begin()
	m.Commit(func(uint64) {}) // commit 2
	if Visible(2, 0, reader) {
		t.Fatal("snapshot must not see later commit")
	}
	if !Visible(1, 0, reader) {
		t.Fatal("snapshot must see earlier commit")
	}
}

// TestWriter pins the one write path's stamping rules: Append stamps
// xmin and clears xmax, Delete stamps xmax once and refuses a second
// delete, Update rewrites only non-system cells, and every refused write
// publishes no commit id.
func TestWriter(t *testing.T) {
	fact := catalog.NewTable(disk.NewMem(), "f", 2, []catalog.Column{{Name: "xmin"}, {Name: "xmax"}, {Name: "v"}})
	var m Manager
	row := func(i int64) []int64 {
		r, err := fact.Heap.RowAt(i)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// A caller's stale xmax is overwritten, never stored.
	s1, err := m.Append(fact, [][]int64{{0, 9, 10}, {0, 0, 11}})
	if err != nil || s1 != 1 {
		t.Fatalf("Append = (%d, %v), want (1, nil)", s1, err)
	}
	if r := row(0); r[0] != 1 || r[1] != 0 || r[2] != 10 {
		t.Fatalf("appended row = %v, want [1 0 10]", r)
	}
	if _, err := m.Append(fact, [][]int64{{0, 0}}); err == nil {
		t.Fatal("short row appended")
	}
	if fact.Heap.NumRows() != 2 {
		t.Fatalf("refused append stored rows: %d", fact.Heap.NumRows())
	}

	s2, err := m.Delete(fact, 1)
	if err != nil || s2 != 2 || row(1)[1] != 2 {
		t.Fatalf("Delete = (%d, %v), xmax %d; want (2, nil), xmax 2", s2, err, row(1)[1])
	}
	if _, err := m.Delete(fact, 1); err == nil || !strings.Contains(err.Error(), "already deleted") {
		t.Fatalf("second delete error = %v, want already deleted", err)
	}
	if row(1)[1] != 2 {
		t.Fatalf("refused delete re-stamped xmax to %d", row(1)[1])
	}
	if _, err := m.Delete(fact, 99); err == nil {
		t.Fatal("out-of-range delete succeeded")
	}

	if _, err := m.Update(fact, 0, 1, 5); err == nil {
		t.Fatal("Update rewrote a system column")
	}
	s3, err := m.Update(fact, 0, 2, 42)
	if err != nil || s3 != 3 || row(0)[2] != 42 {
		t.Fatalf("Update = (%d, %v), cell %d; want (3, nil), cell 42", s3, err, row(0)[2])
	}
	if got := m.Begin(); got != 3 {
		t.Fatalf("Begin = %d after 3 commits and 4 refusals, want 3", got)
	}
}
