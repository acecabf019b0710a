package shard

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/query"
)

// ShardFailedError is the serving tier's typed shard failure: a query
// was lost to — or cannot be answered without — a shard that has been
// quarantined. It is retryable in the HTTP sense (503 + Retry-After):
// the condition is positional, not a property of the query, and may
// clear when capacity is restored; on a partition-dealt group a retry
// narrowed to surviving partitions can succeed immediately.
type ShardFailedError struct {
	// Shard is the quarantined shard's index; -1 when every shard is
	// down.
	Shard int
	// Cause is the underlying pipeline failure.
	Cause error
}

func (e *ShardFailedError) Error() string {
	if e.Shard < 0 {
		return fmt.Sprintf("shard: all shards failed: %v", e.Cause)
	}
	return fmt.Sprintf("shard: shard %d failed: %v", e.Shard, e.Cause)
}

func (e *ShardFailedError) Unwrap() error { return e.Cause }

// HTTPStatus maps the error to 503 Service Unavailable.
func (e *ShardFailedError) HTTPStatus() int { return http.StatusServiceUnavailable }

// Retryable marks the failure as safe to retry after backoff.
func (e *ShardFailedError) Retryable() bool { return true }

// RetryAfter is the suggested client backoff, surfaced as the HTTP
// Retry-After header by internal/server.
func (e *ShardFailedError) RetryAfter() time.Duration { return time.Second }

// StallError is the cause a supervisor assigns when it declares a shard
// dead for making no scan progress while queries were resident.
type StallError struct {
	Shard int
	// Stalled is how long the page counter sat still before the
	// supervisor pulled the trigger.
	Stalled time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("shard: shard %d made no scan progress for %v with queries resident", e.Shard, e.Stalled)
}

// typeShardErr re-types a pipeline failure as the serving tier's
// ShardFailedError, leaving every other error (cancel, clean stop,
// context) untouched.
func typeShardErr(shard int, err error) error {
	var ferr *core.PipelineFailedError
	if errors.As(err, &ferr) {
		return &ShardFailedError{Shard: shard, Cause: ferr}
	}
	return err
}

// supervise starts the group's shard supervision: one watcher per shard
// reacting to pipeline failure, plus — when Config.StallTimeout is set —
// a progress monitor that declares a shard dead if its page counter
// stops advancing while queries are resident. Called from Start.
func (g *Group) supervise() {
	for i, p := range g.pipes {
		g.supWg.Add(1)
		go func(i int, p *core.Pipeline) {
			defer g.supWg.Done()
			select {
			case <-p.Failed():
				g.quarantine(i, p.FailureCause())
			case <-g.superStop:
			}
		}(i, p)
	}
	if g.stall <= 0 {
		return
	}
	g.supWg.Add(1)
	go func() {
		defer g.supWg.Done()
		interval := g.stall / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		lastPages := make([]int64, len(g.pipes))
		lastMove := make([]time.Time, len(g.pipes))
		now := time.Now()
		for i := range lastMove {
			lastMove[i] = now
		}
		for {
			select {
			case <-g.superStop:
				return
			case <-tick.C:
			}
			now = time.Now()
			for i, p := range g.pipes {
				if p.FailureCause() != nil {
					continue
				}
				pages := p.Stats().PagesRead
				if pages != lastPages[i] || p.ActiveQueries() == 0 {
					lastPages[i] = pages
					lastMove[i] = now
					continue
				}
				if stalled := now.Sub(lastMove[i]); stalled >= g.stall {
					// The failure watcher above performs the quarantine.
					p.FailNow(&StallError{Shard: i, Stalled: stalled})
				}
			}
		}
	}()
}

// quarantine marks a failed shard out of the serving set: later
// submissions skip it, and feasibility filtering keeps the survivors
// parity-exact. It needs no plane bookkeeping: the dead pipeline's
// failure sweep already reported and recycled its runs, and each
// query's handle retires its slot once. A submission that read the
// serving set just before this line activates on the dead shard, gets
// its failure back from Activate, and fails like any activation error.
// The plane's memoized predicate scans are dropped: a quarantine may
// reflect I/O trouble on the shared heaps.
func (g *Group) quarantine(shard int, cause error) {
	g.mu.Lock()
	if g.failed[shard] != nil {
		g.mu.Unlock()
		return
	}
	g.failed[shard] = cause
	g.nFailed++
	g.mu.Unlock()
	g.plane.InvalidateCache()
	g.om.quarantines.Inc()
	g.om.shardUp[shard].Set(0)
	if g.logf != nil {
		g.logf("shard %d quarantined (%d/%d serving): %v",
			shard, len(g.pipes)-g.nFailed, len(g.pipes), cause)
	}
}

// Health reports the group's serving state: "ok" with every shard
// healthy, "degraded" once shards have been quarantined, "failed" when
// none are left.
func (g *Group) Health() core.Health {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := core.Health{State: "ok"}
	down := 0
	for i, p := range g.pipes {
		sh := core.ShardHealth{Shard: i, State: core.ShardHealthy}
		// Report the pipeline's own failure even before the quarantine
		// lands, so health never lags the truth.
		if cause := g.failed[i]; cause != nil {
			sh.State, sh.Cause = core.ShardFailed, cause.Error()
		} else if f := p.FailureCause(); f != nil {
			sh.State, sh.Cause = core.ShardFailed, f.Error()
		}
		if sh.State == core.ShardFailed {
			down++
		}
		h.Shards = append(h.Shards, sh)
	}
	switch {
	case down == len(g.pipes):
		h.State = "failed"
	case down > 0:
		h.State = "degraded"
	}
	return h
}

// feasibleLocked decides whether a query admitted at slot can still be
// answered exactly by the surviving shards; when it cannot, it names a
// quarantined shard. Callers hold mu. On a page-strided group every
// shard owns an interleaved slice of every query's pages, so any
// quarantine makes new queries infeasible; on a partition-dealt group
// the §5 pruning metadata tells exactly which queries the dead
// partitions matter to. With every shard down nothing is feasible.
func (g *Group) feasibleLocked(q *query.Bound, slot int) (bool, int) {
	if g.nFailed == 0 {
		return true, -1
	}
	if g.subsets == nil || g.nFailed == len(g.pipes) {
		return false, g.firstFailedLocked()
	}
	need := core.NeededPartitions(g.star, g.plane, q, slot)
	for i := range g.pipes {
		if g.failed[i] == nil {
			continue
		}
		for _, part := range g.subsets[i] {
			if need[part] {
				return false, i
			}
		}
	}
	return true, -1
}

func (g *Group) firstFailedLocked() int {
	for i := range g.pipes {
		if g.failed[i] != nil {
			return i
		}
	}
	return -1
}
