package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"cjoin/internal/catalog"
	"cjoin/internal/txn"
)

// The write plane (§3.5): POST /update decodes the request into stored
// cells and commits through the same txn.Manager that stamps read
// snapshots in handleSubmit, so a query admitted before a commit keeps
// evaluating at its submit-time snapshot while later submissions see the
// new state. The server owns only what is HTTP-specific: JSON → cell
// encoding, the join-key-immutable check, status codes and metrics.
//
//	op "append"     txn.Manager.Append: fact rows land on the heap tail
//	                with xmin = commit id; the tail page has no zone-map
//	                synopsis yet, so the continuous scan conservatively
//	                visits it for every resident query.
//	op "delete"     txn.Manager.Delete stamps one fact row's xmax; the
//	                widen-only zone-map bounds update keeps pages needed
//	                by older snapshots.
//	op "dim-update" txn.Manager.Update rewrites one dimension cell in
//	                place. The heap's version moves, so the dimension
//	                plane's memoized scans of that dimension go stale on
//	                their own; the next admission re-scans.

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !decodeBody(w, r, MaxUpdateBodyBytes, &req) {
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	start := time.Now()
	var (
		snap     txn.Snapshot
		affected int
		err      error
		kind     string
	)
	switch req.Op {
	case "append":
		kind = "append"
		snap, affected, err = s.applyAppend(&req)
	case "delete":
		kind = "delete"
		snap, affected, err = s.applyDelete(&req)
	case "dim-update":
		kind = "dim_update"
		snap, affected, err = s.applyDimUpdate(&req)
	default:
		writeErr(w, http.StatusBadRequest, "unknown op %q (want append, delete or dim-update)", req.Op)
		return
	}
	if err != nil {
		// The commit id was not published (txn.Manager.CommitErr): older
		// snapshots and the next Begin are unaffected. A static star is a
		// well-formed request the deployment cannot take: 422.
		s.mCommitErrs.Inc()
		code := http.StatusBadRequest
		if errors.Is(err, catalog.ErrStaticStar) {
			code = http.StatusUnprocessableEntity
		}
		writeErr(w, code, "%v", err)
		return
	}
	if kind == "dim_update" {
		s.mCacheInval.Inc()
	}
	s.mCommits.With(kind).Inc()
	s.mCommitDur.ObserveSince(start)
	writeJSON(w, http.StatusOK, UpdateResponse{Op: req.Op, Snapshot: uint64(snap), RowsAffected: affected})
}

func (s *Server) applyAppend(req *UpdateRequest) (txn.Snapshot, int, error) {
	fact, err := s.star.WritableFact()
	if err != nil {
		return 0, 0, err
	}
	if len(req.Rows) == 0 {
		return 0, 0, errors.New(`op "append" requires "rows"`)
	}
	visible := fact.VisibleColumns()
	encoded := make([][]int64, 0, len(req.Rows))
	for ri, vals := range req.Rows {
		if len(vals) != len(visible) {
			return 0, 0, fmt.Errorf("row %d: %s has %d columns, got %d values", ri, fact.Name, len(visible), len(vals))
		}
		row := make([]int64, len(fact.Columns))
		for i, v := range vals {
			ci := fact.Hidden + i
			cell, err := encodeCell(fact, ci, v)
			if err != nil {
				return 0, 0, fmt.Errorf("row %d: %w", ri, err)
			}
			row[ci] = cell
		}
		encoded = append(encoded, row)
	}
	// Encoding happens before the commit so an undecodable row publishes
	// nothing; inside the commit the batch is all-or-nothing.
	snap, err := s.txm.Append(fact, encoded)
	return snap, len(encoded), err
}

func (s *Server) applyDelete(req *UpdateRequest) (txn.Snapshot, int, error) {
	fact, err := s.star.WritableFact()
	if err != nil {
		return 0, 0, err
	}
	if req.Row == nil {
		return 0, 0, errors.New(`op "delete" requires "row"`)
	}
	snap, err := s.txm.Delete(fact, *req.Row)
	return snap, 1, err
}

func (s *Server) applyDimUpdate(req *UpdateRequest) (txn.Snapshot, int, error) {
	if req.Table == "" || req.Column == "" || req.Row == nil {
		return 0, 0, errors.New(`op "dim-update" requires "table", "column" and "row"`)
	}
	di := s.star.DimIndex(req.Table)
	if di < 0 {
		return 0, 0, fmt.Errorf("unknown dimension table %q (fact writes use op append/delete)", req.Table)
	}
	dim := s.star.Dims[di]
	ci := dim.ColIndex(req.Column)
	if ci < 0 {
		return 0, 0, fmt.Errorf("dimension %s has no column %q", dim.Name, req.Column)
	}
	if ci == s.star.KeyCol[di] {
		return 0, 0, fmt.Errorf("column %q is the join key of %s; key updates are not supported", req.Column, dim.Name)
	}
	cell, err := encodeCell(dim, ci, req.Value)
	if err != nil {
		return 0, 0, err
	}
	snap, err := s.txm.Update(dim, *req.Row, ci, cell)
	return snap, 1, err
}

// encodeCell turns one JSON value into the column's stored int64:
// integral numbers for Int columns, dictionary ids for Str columns.
func encodeCell(t *catalog.Table, ci int, v any) (int64, error) {
	name := t.Columns[ci].Name
	switch x := v.(type) {
	case string:
		id, err := t.EncodeStr(ci, x)
		if err != nil {
			return 0, fmt.Errorf("column %s: %w", name, err)
		}
		return id, nil
	case float64: // every JSON number
		if x != math.Trunc(x) || math.Abs(x) >= 1<<53 {
			return 0, fmt.Errorf("column %s: value %v is not an exact integer", name, x)
		}
		if t.Dicts[ci] != nil {
			return 0, fmt.Errorf("column %s is a string column, got number %v", name, x)
		}
		return int64(x), nil
	case int:
		if t.Dicts[ci] != nil {
			return 0, fmt.Errorf("column %s is a string column, got number %v", name, x)
		}
		return int64(x), nil
	case int64:
		if t.Dicts[ci] != nil {
			return 0, fmt.Errorf("column %s is a string column, got number %v", name, x)
		}
		return x, nil
	default:
		return 0, fmt.Errorf("column %s: unsupported value type %T", name, v)
	}
}
