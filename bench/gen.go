package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cjoin/internal/server"
	"cjoin/internal/server/client"
)

// sample is the client-side timeline of one request. All times are the
// bench's own clock.
type sample struct {
	lane int
	seq  int // position in the lane's stream
	// due is when the request was to be sent: the schedule slot in an
	// open loop, the moment the window had room in a closed loop.
	due   time.Time
	sent  time.Time // request about to be written
	acked time.Time // reads: POST /query response decoded
	asked time.Time // reads: GET /query/{id}/result about to be written
	done  time.Time // rows decoded, or commit acknowledged
	open  bool      // open loop: latency counts from due, not sent

	id   string // server-assigned query id
	q    *client.Query
	sql  string
	rows int
	// resp is kept for every keepEvery-th read, for the answer check.
	resp *server.ResultResponse

	update   *server.UpdateRequest
	snapshot uint64

	failure string // empty when the request succeeded
}

// latency is what the user waited: submit sent → rows decoded, timed
// from the due time in an open loop so that a stall delays every request
// scheduled behind it (no coordinated omission).
func (s *sample) latency() time.Duration {
	if s.open {
		return s.done.Sub(s.due)
	}
	return s.done.Sub(s.sent)
}

// lag is how late the generator itself sent the request.
func (s *sample) lag() time.Duration { return s.sent.Sub(s.due) }

// load is a running set of generator lanes.
type load struct {
	stopCh     chan struct{}
	wg         sync.WaitGroup
	transports []*http.Transport
	mu         sync.Mutex
	done       []*sample
}

// startLoad starts one generator per lane against the server at base
// and returns at once; stop ends it. Every keepEvery-th read of a lane
// keeps its decoded rows.
//
// A reader lane is two goroutines, each on its own keep-alive
// connection, because HTTP/1.1 cannot interleave on one: the submitter
// POSTs queries (202 at once) and the collector GETs their results in
// submission order (blocking). In-flight concurrency is the window of
// submitted-but-uncollected queries, not a thread count.
func startLoad(ctx context.Context, base string, lanes []lane, keepEvery int) *load {
	ld := &load{stopCh: make(chan struct{})}
	start := time.Now()
	for i, l := range lanes {
		tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
		ld.transports = append(ld.transports, tr)
		cl := client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}))
		ld.wg.Add(1)
		if l.writer {
			go ld.write(ctx, cl, i, l, start)
		} else {
			go ld.read(ctx, cl, i, l, start, keepEvery)
		}
	}
	return ld
}

// stop ends submission, waits until every submitted request has been
// collected, closes the connections, and returns all samples.
func (ld *load) stop() []*sample {
	close(ld.stopCh)
	ld.wg.Wait()
	for _, tr := range ld.transports {
		tr.CloseIdleConnections()
	}
	return ld.done
}

func (ld *load) record(s *sample) {
	ld.mu.Lock()
	ld.done = append(ld.done, s)
	ld.mu.Unlock()
}

// waitDue blocks until the request's send time and returns it, or false
// once the load is stopped. In a closed loop the send time is when the
// window freed a place.
func (ld *load) waitDue(l lane, start time.Time, seq int, freed <-chan time.Time) (time.Time, bool) {
	if l.window > 0 {
		select {
		case t := <-freed:
			return t, true
		case <-ld.stopCh:
			return time.Time{}, false
		}
	}
	due := start.Add(time.Duration((float64(seq) + l.phase) / l.rate * float64(time.Second)))
	if wait := time.Until(due); wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ld.stopCh:
			return time.Time{}, false
		}
	}
	select {
	case <-ld.stopCh:
		return time.Time{}, false
	default:
		return due, true
	}
}

func (ld *load) read(ctx context.Context, cl *client.Client, laneIdx int, l lane, start time.Time, keepEvery int) {
	defer ld.wg.Done()
	// freed carries, for each free place in the window, when it became
	// free; it is sized to the window, so the collector never blocks.
	freed := make(chan time.Time, l.window)
	for i := 0; i < l.window; i++ {
		freed <- start
	}
	// An open loop never drops a request: the queue between submitter
	// and collector holds more than any run submits (a minute at 1000/s).
	depth := l.window
	if depth == 0 {
		depth = 1 << 16
	}
	inflight := make(chan *sample, depth)

	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for s := range inflight {
			if s.q != nil {
				s.asked = time.Now()
				res, err := s.q.Result(ctx)
				s.done = time.Now()
				switch {
				case err != nil:
					s.failure = "result: " + err.Error()
				case res.State != "done" || res.Error != "":
					s.failure = fmt.Sprintf("query %s %s: %s", s.id, res.State, res.Error)
				default:
					s.rows = res.RowCount
					if s.seq%keepEvery == 0 {
						s.resp = &res
					}
				}
			}
			ld.record(s)
			if l.window > 0 {
				freed <- s.done
			}
		}
	}()

	var lastAcked time.Time
	for seq := 0; ; seq++ {
		due, ok := ld.waitDue(l, start, seq, freed)
		if !ok {
			break
		}
		// A place freed while the previous POST was still in flight could
		// not have been used sooner: that wait is the server's, not the
		// generator's lag.
		if l.window > 0 && due.Before(lastAcked) {
			due = lastAcked
		}
		s := &sample{lane: laneIdx, seq: seq, due: due, open: l.window == 0, sql: l.next().SQL}
		s.sent = time.Now()
		q, err := cl.Submit(ctx, s.sql)
		s.acked = time.Now()
		lastAcked = s.acked
		if err != nil {
			s.failure = "submit: " + err.Error()
			s.done = s.acked
		} else {
			s.id, s.q = q.ID, q
		}
		inflight <- s
	}
	close(inflight)
	collector.Wait()
}

func (ld *load) write(ctx context.Context, cl *client.Client, laneIdx int, l lane, start time.Time) {
	defer ld.wg.Done()
	for seq := 0; ; seq++ {
		due, ok := ld.waitDue(l, start, seq, nil)
		if !ok {
			return
		}
		s := &sample{lane: laneIdx, seq: seq, due: due, open: true, update: l.next().Update}
		s.sent = time.Now()
		res, err := cl.Update(ctx, *s.update)
		s.done = time.Now()
		if err != nil {
			s.failure = "commit: " + err.Error()
		}
		s.snapshot = res.Snapshot
		ld.record(s)
	}
}
