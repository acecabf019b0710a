package storage

// Scanner iterates over the rows of a heap file in page-major order,
// reading one page of device I/O at a time. The row slice returned by
// Next aliases internal buffers and is valid only until the next call.
type Scanner struct {
	h       *HeapFile
	page    int
	maxPage int // exclusive; -1 means "to the end as of each page read"
	vals    []int64
	scratch []byte
	n       int // rows in current page
	i       int // next row in current page
	ncols   int
	err     error
}

// NewScanner returns a scanner positioned before the first row.
func NewScanner(h *HeapFile) *Scanner {
	return &Scanner{
		h:       h,
		maxPage: -1,
		vals:    make([]int64, h.RowsPerPage()*h.NumCols()),
		scratch: make([]byte, PageSize),
		ncols:   h.NumCols(),
	}
}

// Next returns the next row, or false at the end of the heap or on error.
func (s *Scanner) Next() ([]int64, bool) {
	for s.i >= s.n {
		limit := s.maxPage
		if limit < 0 {
			limit = s.h.NumPages()
		}
		if s.page >= limit {
			return nil, false
		}
		n, err := s.h.ReadPage(s.page, s.vals, s.scratch)
		if err != nil {
			s.err = err
			return nil, false
		}
		s.page++
		s.n = n
		s.i = 0
	}
	row := s.vals[s.i*s.ncols : (s.i+1)*s.ncols]
	s.i++
	return row, true
}

// Err returns the first error encountered by Next, if any.
func (s *Scanner) Err() error { return s.err }
