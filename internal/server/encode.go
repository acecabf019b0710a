package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"cjoin/internal/agg"
	"cjoin/internal/catalog"
	"cjoin/internal/query"
)

// The /result body of a done query, streamed: rows go from []agg.Result
// to the connection through one buffered writer, with no [][]any and no
// reflection. The bytes are exactly what writeJSON writes for
// ResultResponse{Rows: DecodeResults(b, rows), …} — field order,
// omitempty and the trailing newline — so clients and the benchmark's
// answer check cannot tell the two apart (TestResultEncodingMatchesJSON,
// FuzzResultEncoding).

// resultWriters pools the buffered writers: a ~10^4-row result is a few
// hundred KB, written in 32 KB chunks, and a small one is one write.
var resultWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// encodeResult writes the ResultResponse of a done query with rows to w.
func encodeResult(w io.Writer, id string, b *query.Bound, rows []agg.Result, elapsedMillis int64) error {
	bw := resultWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil)
		resultWriters.Put(bw)
	}()
	var se stringEncoder
	buf := append(bw.AvailableBuffer(), `{"id":`...)
	buf = se.append(buf, id)
	buf = append(buf, `,"state":"done"`...)
	if len(b.GroupNames)+len(b.AggNames) > 0 {
		buf = append(buf, `,"columns":[`...)
		for i, name := range b.GroupNames {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = se.append(buf, name)
		}
		for i, name := range b.AggNames {
			if i+len(b.GroupNames) > 0 {
				buf = append(buf, ',')
			}
			buf = se.append(buf, name)
		}
		buf = append(buf, ']')
	}
	if len(rows) > 0 {
		// Resolved once per response: each group column decodes through
		// its dictionary or prints as an integer.
		dicts := make([]*catalog.Dict, len(b.GroupBy))
		for gi := range dicts {
			dicts[gi] = groupDict(b, gi)
		}
		buf = append(buf, `,"rows":[`...)
		for i, r := range rows {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for gi, v := range r.Group {
				if gi > 0 {
					buf = append(buf, ',')
				}
				s, ok := "", false
				if d := dicts[gi]; d != nil {
					s, ok = d.Decode(v)
				}
				if ok {
					buf = se.append(buf, s)
				} else {
					buf = strconv.AppendInt(buf, v, 10)
				}
			}
			for ai, v := range r.Ints {
				if ai+len(r.Group) > 0 {
					buf = append(buf, ',')
				}
				if spec := b.Aggs[ai]; spec.Fn == agg.Avg {
					buf = appendFloat(buf, r.Value(ai, spec))
				} else {
					buf = strconv.AppendInt(buf, v, 10)
				}
			}
			buf = append(buf, ']')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			buf = bw.AvailableBuffer()
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"row_count":`...)
	buf = strconv.AppendInt(buf, int64(len(rows)), 10)
	buf = append(buf, `,"elapsed_ms":`...)
	buf = strconv.AppendInt(buf, elapsedMillis, 10)
	buf = append(buf, "}\n"...)
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// stringEncoder appends JSON strings. Plain printable ASCII, which is
// every SSB dictionary value, is copied between quotes; any other string
// goes through encoding/json (escapeHTML off, as writeJSON), so invalid
// UTF-8, control characters and U+2028/U+2029 are escaped exactly as
// there.
type stringEncoder struct {
	out bytes.Buffer
	enc *json.Encoder
}

func (e *stringEncoder) append(dst []byte, s string) []byte {
	if plainASCII(s) {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.out)
		e.enc.SetEscapeHTML(false)
	}
	e.out.Reset()
	_ = e.enc.Encode(s) // a Go string always encodes
	return append(dst, bytes.TrimSuffix(e.out.Bytes(), []byte("\n"))...)
}

// plainASCII reports whether s is ASCII that encoding/json writes
// verbatim: no control characters, no '"' and no '\\'.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendFloat formats f as encoding/json does a float64: the shortest
// 'f' form, or 'e' outside [1e-6, 1e21) with a one-digit negative
// exponent's leading zero dropped (1e-07 → 1e-7). f must be finite,
// which an AVG of int64 sums and counts always is.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
