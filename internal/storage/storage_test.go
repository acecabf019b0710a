package storage

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"cjoin/internal/disk"
)

func TestAppendAndScanRoundTrip(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 3)
	const n = 5000
	for i := int64(0); i < n; i++ {
		h.Append([]int64{i, i * 2, -i})
	}
	if h.NumRows() != n {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	s := NewScanner(h)
	var i int64
	for row, ok := s.Next(); ok; row, ok = s.Next() {
		if row[0] != i || row[1] != i*2 || row[2] != -i {
			t.Fatalf("row %d = %v", i, row)
		}
		i++
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if i != n {
		t.Fatalf("scanned %d rows", i)
	}
}

func TestRowAtAcrossPages(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	const n = 3000
	for i := int64(0); i < n; i++ {
		h.Append([]int64{i, i % 7})
	}
	for _, idx := range []int64{0, 1, int64(h.RowsPerPage()) - 1, int64(h.RowsPerPage()), n - 1} {
		row, err := h.RowAt(idx)
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != idx || row[1] != idx%7 {
			t.Fatalf("RowAt(%d) = %v", idx, row)
		}
	}
	if _, err := h.RowAt(n); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// TestReadExtent pins the extent read the buffer pool's read-ahead uses:
// contiguous flushed pages come back in one device request, the extent
// stops before the in-memory tail and at the first page another heap
// interleaved, a start outside the flushed pages is an error, and every
// page DecodePage decodes from the extent equals ReadPage.
func TestReadExtent(t *testing.T) {
	dev := disk.NewMem()
	h := CreateHeap(dev, 2)
	rpp := int64(h.RowsPerPage())
	n := 3*rpp + 5 // three flushed pages and a tail
	for i := int64(0); i < n; i++ {
		h.Append([]int64{i, -i})
	}
	buf := make([]byte, 8*PageSize)
	before := dev.Stats().Reads
	got, err := h.ReadExtent(1, 8, buf)
	if err != nil || got != 2 {
		t.Fatalf("ReadExtent(1, 8) = %d, %v; want the 2 flushed pages before the tail", got, err)
	}
	if reads := dev.Stats().Reads - before; reads != 1 {
		t.Fatalf("extent took %d device reads, want 1", reads)
	}
	dst := make([]int64, rpp*2)
	want := make([]int64, rpp*2)
	scratch := make([]byte, PageSize)
	for i := 0; i < got; i++ {
		rows, err := h.DecodePage(buf[i*PageSize:(i+1)*PageSize], dst)
		if err != nil {
			t.Fatal(err)
		}
		wantRows, err := h.ReadPage(1+i, want, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if rows != wantRows || !slices.Equal(dst[:rows*2], want[:wantRows*2]) {
			t.Fatalf("extent page %d differs from ReadPage", 1+i)
		}
	}
	for _, start := range []int{-1, 3, 4} {
		if _, err := h.ReadExtent(start, 1, buf); err == nil {
			t.Fatalf("ReadExtent(%d) outside the 3 flushed pages must fail", start)
		}
	}

	// A second heap flushing between h's pages breaks contiguity.
	other := CreateHeap(dev, 2)
	for i := int64(0); i < rpp; i++ {
		other.Append([]int64{i, i})
	}
	for i := int64(0); i < rpp; i++ {
		h.Append([]int64{i, i})
	}
	if got, err := h.ReadExtent(2, 8, buf); err != nil || got != 1 {
		t.Fatalf("ReadExtent across an interleaved page = %d, %v; want 1", got, err)
	}
}

// TestDecodePageRejectsCorruptCount: a header row count above the page
// capacity is an error, not a read past the page.
func TestDecodePageRejectsCorruptCount(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	for _, tc := range []struct {
		name  string
		count uint32
	}{
		{"capacity+1", uint32(h.RowsPerPage() + 1)},
		{"max-uint32", ^uint32(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pg := make([]byte, PageSize)
			dst := make([]int64, h.RowsPerPage()*2)
			binary.LittleEndian.PutUint32(pg, tc.count)
			if n, err := h.DecodePage(pg, dst); err == nil {
				t.Fatalf("header count %d decoded %d rows; want an error", tc.count, n)
			}
		})
	}
}

// TestDecodePageHeaderCount: DecodePage decodes exactly the rows the
// header counts, from the bytes after the header, and leaves the rest of
// dst alone.
func TestDecodePageHeaderCount(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	rpp := h.RowsPerPage()
	for _, tc := range []struct {
		name string
		rows int
	}{{"empty", 0}, {"partial", 3}, {"full", rpp}} {
		rows := tc.rows
		t.Run(tc.name, func(t *testing.T) {
			pg := make([]byte, PageSize)
			binary.LittleEndian.PutUint32(pg, uint32(rows))
			for i := 0; i < rpp*2; i++ {
				binary.LittleEndian.PutUint64(pg[pageHeader+8*i:], uint64(int64(i)-5))
			}
			dst := make([]int64, rpp*2)
			for i := range dst {
				dst[i] = 1 << 40
			}
			n, err := h.DecodePage(pg, dst)
			if err != nil || n != rows {
				t.Fatalf("DecodePage = %d, %v; want %d rows", n, err, rows)
			}
			for i, v := range dst {
				want := int64(i) - 5
				if i >= rows*2 {
					want = 1 << 40
				}
				if v != want {
					t.Fatalf("dst[%d] = %d, want %d", i, v, want)
				}
			}
		})
	}
}

// TestReadPageCorruptHeader: ReadPage decodes a flushed page through
// DecodePage, so a corrupt header on the device is an error there too.
func TestReadPageCorruptHeader(t *testing.T) {
	dev := disk.NewMem()
	h := CreateHeap(dev, 1)
	rpp := int64(h.RowsPerPage())
	for i := int64(0); i < 2*rpp; i++ {
		h.Append([]int64{i})
	}
	// The heap is alone on the device, so its page 1 starts at PageSize.
	var hdr [pageHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(rpp+1))
	if err := dev.WriteAt(hdr[:], PageSize); err != nil {
		t.Fatal(err)
	}
	dst := make([]int64, rpp)
	scratch := make([]byte, PageSize)
	if _, err := h.ReadPage(1, dst, scratch); err == nil {
		t.Fatal("corrupt page 1 read without error")
	}
	if n, err := h.ReadPage(0, dst, scratch); err != nil || n != int(rpp) || dst[rpp-1] != rpp-1 {
		t.Fatalf("page 0 beside the corrupt page: n=%d err=%v", n, err)
	}
}

// TestReadPageOutOfRange: a page before the first, past the last, or at
// an empty tail is an error, not a panic or a zero-row page.
func TestReadPageOutOfRange(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 1)
	rpp := int64(h.RowsPerPage())
	for i := int64(0); i < 2*rpp; i++ { // two full pages, empty tail
		h.Append([]int64{i})
	}
	dst := make([]int64, rpp)
	scratch := make([]byte, PageSize)
	for _, page := range []int{-1, 2, 3} {
		if _, err := h.ReadPage(page, dst, scratch); err == nil {
			t.Fatalf("ReadPage(%d) of a 2-page heap must fail", page)
		}
	}
}

func TestTailVisibleWithoutFlush(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 1)
	h.Append([]int64{42})
	if h.NumPages() != 1 {
		t.Fatalf("pages %d", h.NumPages())
	}
	s := NewScanner(h)
	row, ok := s.Next()
	if !ok || row[0] != 42 {
		t.Fatalf("tail row not visible: %v %v", row, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("only one row expected")
	}
}

// TestScannerSeesAppendsAtTail pins that a scan's end is the heap's end
// as of each page read, not as of NewScanner: a row appended onto a new
// page before the scanner reaches it is returned.
func TestScannerSeesAppendsAtTail(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 1)
	rpp := int64(h.RowsPerPage())
	for i := int64(0); i < rpp; i++ {
		h.Append([]int64{i})
	}
	s := NewScanner(h)
	for i := int64(0); i < rpp; i++ {
		if row, ok := s.Next(); !ok || row[0] != i {
			t.Fatalf("row %d = %v, %v", i, row, ok)
		}
	}
	h.Append([]int64{rpp})
	if row, ok := s.Next(); !ok || row[0] != rpp {
		t.Fatalf("appended row not visible: %v, %v", row, ok)
	}
	if _, ok := s.Next(); ok || s.Err() != nil {
		t.Fatalf("scan must end cleanly, err=%v", s.Err())
	}
}

func TestScannerEmptyHeap(t *testing.T) {
	s := NewScanner(CreateHeap(disk.NewMem(), 2))
	if row, ok := s.Next(); ok {
		t.Fatalf("empty heap returned %v", row)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
}

func TestUpdateCol(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	const n = 2500
	for i := int64(0); i < n; i++ {
		h.Append([]int64{i, 0})
	}
	// One flushed-page row and one tail row.
	if err := h.UpdateCol(3, 1, 99); err != nil {
		t.Fatal(err)
	}
	if err := h.UpdateCol(n-1, 1, 77); err != nil {
		t.Fatal(err)
	}
	for idx, want := range map[int64]int64{3: 99, n - 1: 77, 4: 0} {
		row, err := h.RowAt(idx)
		if err != nil {
			t.Fatal(err)
		}
		if row[1] != want {
			t.Fatalf("row %d col1 = %d, want %d", idx, row[1], want)
		}
	}
	if err := h.UpdateCol(n, 0, 1); err == nil {
		t.Fatal("expected range error")
	}
	if err := h.UpdateCol(0, 5, 1); err == nil {
		t.Fatal("expected column error")
	}
}

// TestHeapVersion: every appended row and every UpdateCol — flushed page
// or tail — moves the mutation counter; reads and refused writes do not.
func TestHeapVersion(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	step := func(what string, want uint64, do func()) {
		t.Helper()
		do()
		if got := h.Version(); got != want {
			t.Fatalf("after %s: Version = %d, want %d", what, got, want)
		}
	}
	rpp := int64(h.RowsPerPage())
	step("appends", uint64(rpp+1), func() {
		for i := int64(0); i <= rpp; i++ {
			h.Append([]int64{i, 0})
		}
	})
	step("AppendBatch", uint64(rpp+3), func() { h.AppendBatch([][]int64{{1, 1}, {2, 2}}) })
	step("flushed-page UpdateCol", uint64(rpp+4), func() { _ = h.UpdateCol(0, 1, 5) })
	step("tail UpdateCol", uint64(rpp+5), func() { _ = h.UpdateCol(rpp+1, 1, 5) })
	step("reads and a refused UpdateCol", uint64(rpp+5), func() {
		_, _ = h.RowAt(0)
		_ = h.UpdateCol(1<<40, 1, 5)
	})
}

func TestConcurrentAppendAndScan(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	for i := int64(0); i < 1000; i++ {
		h.Append([]int64{i, 1})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Bounded: a scan reads to the end of the heap, so a writer that
		// appends forever can outpace it and the scan never ends — which
		// is what happens under -race on a busy box.
		for i := int64(1000); i < 50000; i++ {
			select {
			case <-stop:
				return
			default:
				h.Append([]int64{i, 1})
			}
		}
	}()
	// Contract under concurrent appends: every row that existed when the
	// scan started is seen exactly once, rows are strictly increasing,
	// and concurrently appended rows may be skipped (a later cycle — or
	// snapshot visibility — covers them).
	for r := 0; r < 20; r++ {
		s := NewScanner(h)
		var prev int64 = -1
		for row, ok := s.Next(); ok; row, ok = s.Next() {
			if row[0] <= prev {
				t.Errorf("non-increasing row %d after %d", row[0], prev)
				break
			}
			// Row 999 is the last pre-existing one: what follows it was
			// appended concurrently and may be skipped.
			if prev < 999 && row[0] != prev+1 {
				t.Errorf("pre-existing row gap: %d after %d", row[0], prev)
				break
			}
			prev = row[0]
		}
		if s.Err() != nil {
			t.Error(s.Err())
		}
		if prev < 999 {
			t.Errorf("scan ended early at row %d", prev)
		}
	}
	close(stop)
	wg.Wait()
}

// Property: any sequence of rows written is read back identically.
func TestRoundTripQuick(t *testing.T) {
	f := func(rows [][4]int64) bool {
		h := CreateHeap(disk.NewMem(), 4)
		for _, r := range rows {
			h.Append(r[:])
		}
		s := NewScanner(h)
		i := 0
		for row, ok := s.Next(); ok; row, ok = s.Next() {
			for c := 0; c < 4; c++ {
				if row[c] != rows[i][c] {
					return false
				}
			}
			i++
		}
		return i == len(rows) && s.Err() == nil
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestArityPanics(t *testing.T) {
	h := CreateHeap(disk.NewMem(), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity must panic")
		}
	}()
	h.Append([]int64{1})
}
