package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"cjoin/internal/agg"
	"cjoin/internal/catalog"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/server"
	"cjoin/internal/server/client"
	"cjoin/internal/ssb"
)

// checkEvery is the sampling step of the answer check: every 20th read
// of each lane keeps its rows and is compared with internal/ref.
const checkEvery = 20

// refAnswer is what internal/ref says a query returns on the bench's own
// copy of the dataset, in the server's wire form.
type refAnswer struct {
	bound *query.Bound
	raw   []agg.Result
	rows  []byte // json of server.DecodeResults(bound, raw)
}

func refExecute(ds *ssb.Dataset, sqlText string) (*refAnswer, error) {
	b, err := query.ParseBind(sqlText, ds.Star)
	if err != nil {
		return nil, err
	}
	b.Snapshot = ds.Txn.Begin()
	raw, err := ref.Execute(b)
	if err != nil {
		return nil, err
	}
	rows, err := json.Marshal(server.DecodeResults(b, raw))
	if err != nil {
		return nil, err
	}
	return &refAnswer{bound: b, raw: raw, rows: rows}, nil
}

// sameRows reports whether a decoded response holds exactly the
// reference rows: same cells, same order, compared as JSON text (the
// client decodes numbers as json.Number, so no digit is lost).
func sameRows(res *server.ResultResponse, want *refAnswer) (bool, error) {
	rows := res.Rows
	if rows == nil {
		rows = [][]any{}
	}
	got, err := json.Marshal(rows)
	if err != nil {
		return false, err
	}
	return bytes.Equal(got, want.rows), nil
}

// checkResult is the outcome of one run's answer check.
type checkResult struct {
	checked  int
	nonEmpty int // checked answers with at least one row
	wrong    []string
	// answers holds the reference answer of each distinct query checked,
	// for timing result encode and decode on real result sets.
	answers []*refAnswer
}

// checkAnswers compares kept responses with internal/ref, off the
// clock, on nproc goroutines, until budget is spent; it reports how many
// it got through. Reference answers are memoized by SQL text, so a
// pooled workload costs one reference execution per distinct query.
func checkAnswers(ds *ssb.Dataset, kept []*sample, budget time.Duration) checkResult {
	var (
		mu    sync.Mutex
		out   checkResult
		memo  = make(map[string]*refAnswer)
		next  int
		wg    sync.WaitGroup
		until = time.Now().Add(budget)
	)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(kept) || time.Now().After(until) {
					mu.Unlock()
					return
				}
				s := kept[next]
				next++
				want := memo[s.sql]
				mu.Unlock()

				var err error
				if want == nil {
					want, err = refExecute(ds, s.sql)
				}
				ok := false
				if err == nil {
					ok, err = sameRows(s.resp, want)
				}

				mu.Lock()
				out.checked++
				switch {
				case err != nil:
					out.wrong = append(out.wrong, fmt.Sprintf("%s: %v", s.id, err))
				case !ok:
					out.wrong = append(out.wrong, fmt.Sprintf("%s: rows differ from internal/ref: %s", s.id, s.sql))
				default:
					if memo[s.sql] == nil {
						memo[s.sql] = want
						out.answers = append(out.answers, want)
					}
					if len(want.raw) > 0 {
						out.nonEmpty++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// mirrorCommits replays every acknowledged commit into the bench's own
// dataset in snapshot order, so that internal/ref sees the state cjoind
// ended in. It fails if the local commit ids do not line up with the
// acknowledged snapshots.
func mirrorCommits(ds *ssb.Dataset, commits []*sample) error {
	acked := make([]*sample, 0, len(commits))
	for _, s := range commits {
		if s.failure == "" {
			acked = append(acked, s)
		}
	}
	sort.Slice(acked, func(i, j int) bool { return acked[i].snapshot < acked[j].snapshot })
	for _, s := range acked {
		snap, err := applyLocal(ds, s.update)
		if err != nil {
			return fmt.Errorf("mirror commit %d (%s): %w", s.snapshot, s.update.Op, err)
		}
		if snap != s.snapshot {
			return fmt.Errorf("mirror: local commit %d for acknowledged snapshot %d", snap, s.snapshot)
		}
	}
	return nil
}

// applyLocal performs one update on the bench's dataset the way
// internal/server does on cjoind's.
func applyLocal(ds *ssb.Dataset, u *server.UpdateRequest) (uint64, error) {
	switch u.Op {
	case "append":
		fact := ds.Lineorder
		encoded := make([][]int64, len(u.Rows))
		for ri, vals := range u.Rows {
			row := make([]int64, len(fact.Columns))
			for i, v := range vals {
				cell, err := encodeCell(fact, fact.Hidden+i, v)
				if err != nil {
					return 0, err
				}
				row[fact.Hidden+i] = cell
			}
			encoded[ri] = row
		}
		snap := ds.Txn.Commit(func(id uint64) {
			for _, row := range encoded {
				row[ssb.LoXmin] = int64(id)
			}
			fact.Heap.AppendBatch(encoded)
		})
		return uint64(snap), nil
	case "delete":
		snap, err := ds.DeleteFact(*u.Row)
		return uint64(snap), err
	case "dim-update":
		di := ds.Star.DimIndex(u.Table)
		if di < 0 {
			return 0, fmt.Errorf("unknown dimension %q", u.Table)
		}
		dim := ds.Star.Dims[di]
		ci := dim.ColIndex(u.Column)
		if ci < 0 {
			return 0, fmt.Errorf("unknown column %s.%s", u.Table, u.Column)
		}
		cell, err := encodeCell(dim, ci, u.Value)
		if err != nil {
			return 0, err
		}
		snap, err := ds.Txn.CommitErr(func(uint64) error { return dim.Heap.UpdateCol(*u.Row, ci, cell) })
		return uint64(snap), err
	}
	return 0, fmt.Errorf("unknown op %q", u.Op)
}

// encodeCell stores one generated value: dictionary id for a string,
// the integer itself otherwise.
func encodeCell(t *catalog.Table, ci int, v any) (int64, error) {
	switch x := v.(type) {
	case string:
		return t.EncodeStr(ci, x)
	case int:
		return int64(x), nil
	case int64:
		return x, nil
	}
	return 0, fmt.Errorf("column %s: unsupported generated value %T", t.Columns[ci].Name, v)
}

// checkQuiesced runs a fixed query set against the idle server and
// against internal/ref on the mirrored dataset, and compares. It is
// htap_mixed's answer check: a read's snapshot is not reported by the
// server, so reads taken beside the writer cannot be replayed exactly.
func checkQuiesced(ctx context.Context, cl *client.Client, ds *ssb.Dataset, queries []string) checkResult {
	var out checkResult
	for _, sqlText := range queries {
		out.checked++
		res, err := cl.Exec(ctx, sqlText)
		if err != nil {
			out.wrong = append(out.wrong, fmt.Sprintf("post-quiesce: %v", err))
			continue
		}
		want, err := refExecute(ds, sqlText)
		ok := false
		if err == nil {
			ok, err = sameRows(&res, want)
		}
		switch {
		case err != nil:
			out.wrong = append(out.wrong, fmt.Sprintf("post-quiesce %s: %v", res.ID, err))
		case !ok:
			out.wrong = append(out.wrong, fmt.Sprintf("post-quiesce %s: rows differ from internal/ref: %s", res.ID, sqlText))
		default:
			out.answers = append(out.answers, want)
			if len(want.raw) > 0 {
				out.nonEmpty++
			}
		}
	}
	return out
}

// quiescedQueries is the fixed post-quiesce set: the workload's pool,
// plus one query per write kind that cannot miss it — totals over every
// fact row, and the nation groupings the dimension rewrites move.
func quiescedQueries(ds *ssb.Dataset, seed int64) []string {
	return append(sharedPool(ds, seed),
		"SELECT COUNT(*) AS n, SUM(lo_revenue) AS rev FROM lineorder",
		"SELECT SUM(lo_revenue), c_nation FROM lineorder, customer WHERE lo_custkey = c_custkey GROUP BY c_nation ORDER BY c_nation",
		"SELECT SUM(lo_revenue), s_nation, p_size FROM lineorder, supplier, part WHERE lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND p_size < 10 GROUP BY s_nation, p_size ORDER BY s_nation, p_size",
	)
}
