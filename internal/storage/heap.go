// Package storage implements a row-store storage engine: fixed-width
// pages of int64 columns stored in heap files on a (simulated) disk
// device, plus sequential scanners.
//
// This is the substrate under both the conventional query-at-a-time engine
// and the CJOIN continuous scan. All column values are int64: string
// columns are dictionary-encoded by the catalog, a standard warehouse
// practice. A page is one image: a little-endian uint32 row count followed
// by the rows, row-major; DecodePage is the only code that reads it.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"cjoin/internal/disk"
)

// PageSize is the on-disk page size in bytes.
const PageSize = 8192

// pageHeader is the per-page byte overhead: a uint32 row count.
const pageHeader = 4

// HeapFile stores fixed-width rows of ncols int64 values in PageSize
// pages on a device. Rows are append-only; pages other than the in-memory
// tail are always full. It is safe for concurrent appends and reads.
type HeapFile struct {
	dev         *disk.Device
	ncols       int
	width       int // bytes per row
	rowsPerPage int

	mu       sync.RWMutex
	pageOffs []int64 // device offset of each flushed (full) page
	tail     []byte  // partially filled page, not yet on the device
	tailRows int
	nrows    int64
	// version counts mutations: every appended row and every UpdateCol.
	// Readers that memoize scan results (the dimension plane's predicate
	// cache) read it before scanning and trust the result only while it
	// is unchanged.
	version uint64

	// Zone-map synopsis (see zonemap.go): per column, a (min, max) pair
	// per flushed page; tailMin/tailMax track the not-yet-flushed tail.
	// minOfMax/maxOfMin summarize each column over all flushed pages
	// (stale-but-sound under widening); boundsVer advances whenever
	// colBounds changes.
	colBounds [][]int64
	tailMin   []int64
	tailMax   []int64
	minOfMax  []int64
	maxOfMin  []int64
	boundsVer uint64
}

// CreateHeap creates an empty heap for rows of ncols columns on dev.
func CreateHeap(dev *disk.Device, ncols int) *HeapFile {
	if ncols <= 0 {
		panic("storage: heap needs at least one column")
	}
	width := 8 * ncols
	rpp := (PageSize - pageHeader) / width
	if rpp < 1 {
		panic(fmt.Sprintf("storage: row width %d exceeds page capacity", width))
	}
	h := &HeapFile{
		dev:         dev,
		ncols:       ncols,
		width:       width,
		rowsPerPage: rpp,
		tail:        make([]byte, PageSize),
		colBounds:   make([][]int64, ncols),
		tailMin:     make([]int64, ncols),
		tailMax:     make([]int64, ncols),
		minOfMax:    make([]int64, ncols),
		maxOfMin:    make([]int64, ncols),
	}
	// No flushed page yet: "every page intersects" holds vacuously.
	for c := range h.minOfMax {
		h.minOfMax[c], h.maxOfMin[c] = math.MaxInt64, math.MinInt64
	}
	return h
}

// NumCols returns the number of columns per row.
func (h *HeapFile) NumCols() int { return h.ncols }

// RowsPerPage returns the row capacity of a full page.
func (h *HeapFile) RowsPerPage() int { return h.rowsPerPage }

// NumRows returns the current number of rows.
func (h *HeapFile) NumRows() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.nrows
}

// FlushedPages returns the number of full pages on the device. Pages at
// or beyond this index (the in-memory tail) are still mutable and must not
// be cached by buffer pools.
func (h *HeapFile) FlushedPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pageOffs)
}

// NumPages returns the number of pages, counting a non-empty tail.
func (h *HeapFile) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.numPagesLocked()
}

// Version returns the heap's mutation counter. Any append or UpdateCol
// that completes after a call returns v leaves Version() != v, so a
// result computed from a scan that started after reading v is current
// exactly while the counter still reads v.
func (h *HeapFile) Version() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.version
}

func (h *HeapFile) numPagesLocked() int {
	n := len(h.pageOffs)
	if h.tailRows > 0 {
		n++
	}
	return n
}

// Append adds one row. It panics if the row has the wrong arity; that is
// a programming error, not an environmental failure.
func (h *HeapFile) Append(row []int64) {
	if len(row) != h.ncols {
		panic(fmt.Sprintf("storage: Append arity %d, heap has %d columns", len(row), h.ncols))
	}
	h.mu.Lock()
	h.appendLocked(row)
	h.mu.Unlock()
}

// AppendBatch adds rows in order.
func (h *HeapFile) AppendBatch(rows [][]int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, row := range rows {
		if len(row) != h.ncols {
			panic(fmt.Sprintf("storage: AppendBatch arity %d, heap has %d columns", len(row), h.ncols))
		}
		h.appendLocked(row)
	}
}

func (h *HeapFile) appendLocked(row []int64) {
	base := pageHeader + h.tailRows*h.width
	for c, v := range row {
		binary.LittleEndian.PutUint64(h.tail[base+8*c:], uint64(v))
	}
	h.boundsAppendLocked(row)
	h.tailRows++
	h.nrows++
	h.version++
	binary.LittleEndian.PutUint32(h.tail, uint32(h.tailRows))
	if h.tailRows == h.rowsPerPage {
		h.boundsFlushLocked()
		h.pageOffs = append(h.pageOffs, h.dev.Append(h.tail))
		h.tail = make([]byte, PageSize)
		h.tailRows = 0
	}
}

// UpdateCol overwrites column col of the row at global index idx. The
// commit writer (txn.Manager) uses it to stamp xmax on deleted fact
// tuples and to rewrite dimension cells.
func (h *HeapFile) UpdateCol(idx int64, col int, v int64) error {
	if col < 0 || col >= h.ncols {
		return fmt.Errorf("storage: UpdateCol column %d out of range", col)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if idx < 0 || idx >= h.nrows {
		return fmt.Errorf("storage: UpdateCol row %d out of range (nrows %d)", idx, h.nrows)
	}
	page := int(idx) / h.rowsPerPage
	slot := int(idx) % h.rowsPerPage
	if page < len(h.pageOffs) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		off := h.pageOffs[page] + int64(pageHeader+slot*h.width+8*col)
		if err := h.dev.WriteAt(buf[:], off); err != nil {
			return err
		}
	} else {
		binary.LittleEndian.PutUint64(h.tail[pageHeader+slot*h.width+8*col:], uint64(v))
	}
	h.boundsWidenLocked(page, col, v)
	h.version++
	return nil
}

// ReadPage fills dst with the decoded rows of the given page and returns
// the number of rows. dst must have capacity for RowsPerPage()*NumCols()
// values; scratch must be at least PageSize bytes and is reused across
// calls to avoid allocation. Reading the tail page copies from memory and
// performs no device I/O.
func (h *HeapFile) ReadPage(page int, dst []int64, scratch []byte) (int, error) {
	h.mu.RLock()
	flushed := len(h.pageOffs)
	switch {
	case page >= 0 && page < flushed:
		off := h.pageOffs[page]
		h.mu.RUnlock()
		if err := h.dev.ReadAt(scratch[:PageSize], off); err != nil {
			return 0, err
		}
	case page == flushed && h.tailRows > 0:
		copy(scratch, h.tail[:pageHeader+h.tailRows*h.width])
		h.mu.RUnlock()
	default:
		n := h.numPagesLocked()
		h.mu.RUnlock()
		return 0, fmt.Errorf("storage: page %d out of range (%d pages)", page, n)
	}
	return h.DecodePage(scratch, dst)
}

// DecodePage decodes one page image — a page read from the device, or a
// page of an extent ReadExtent returned — into dst and returns its row
// count. dst needs capacity for RowsPerPage()*NumCols() values. A header
// row count above RowsPerPage() is a corrupt page.
func (h *HeapFile) DecodePage(pg []byte, dst []int64) (int, error) {
	n := int(binary.LittleEndian.Uint32(pg))
	if n > h.rowsPerPage {
		return 0, fmt.Errorf("storage: corrupt page: %d rows, capacity %d", n, h.rowsPerPage)
	}
	decodeRows(pg[pageHeader:], dst[:n*h.ncols])
	return n, nil
}

// ReadExtent reads up to count flushed pages starting at page into buf
// (which needs count*PageSize bytes) using a single device request, the
// way a scan with OS read-ahead would. It stops early at the first
// non-contiguous page and returns how many pages were read; DecodePage
// decodes each.
func (h *HeapFile) ReadExtent(page, count int, buf []byte) (int, error) {
	h.mu.RLock()
	flushed := len(h.pageOffs)
	if page < 0 || page >= flushed {
		h.mu.RUnlock()
		return 0, fmt.Errorf("storage: extent start %d outside flushed pages (%d)", page, flushed)
	}
	k := 1
	for k < count && page+k < flushed && h.pageOffs[page+k] == h.pageOffs[page]+int64(k)*PageSize {
		k++
	}
	off := h.pageOffs[page]
	h.mu.RUnlock()
	if err := h.dev.ReadAt(buf[:k*PageSize], off); err != nil {
		return 0, err
	}
	return k, nil
}

// RowAt returns a copy of the row at global index idx (page-major order).
// It is intended for tests and point lookups on small tables.
func (h *HeapFile) RowAt(idx int64) ([]int64, error) {
	if idx < 0 || idx >= h.NumRows() {
		return nil, fmt.Errorf("storage: row %d out of range", idx)
	}
	page := int(idx) / h.rowsPerPage
	slot := int(idx) % h.rowsPerPage
	dst := make([]int64, h.rowsPerPage*h.ncols)
	scratch := make([]byte, PageSize)
	n, err := h.ReadPage(page, dst, scratch)
	if err != nil {
		return nil, err
	}
	if slot >= n {
		return nil, fmt.Errorf("storage: slot %d past page end %d", slot, n)
	}
	row := make([]int64, h.ncols)
	copy(row, dst[slot*h.ncols:(slot+1)*h.ncols])
	return row, nil
}

// decodeRows decodes little-endian int64s from src into dst.
func decodeRows(src []byte, dst []int64) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}
