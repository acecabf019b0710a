package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/query"
	"cjoin/internal/ssb"
)

// sweepCtx is a submit context that kills a shard mid-activation.
// Pipeline.Activate first calls Done right after it registers the run
// in its live set and before it sends the Preprocessor the install
// command. At the first Done call after the victim registered, sweepCtx
// fails the victim, whose failure sweep takes the registered run, and
// cancels itself. The select that follows then has the context, the stop
// signal and perhaps the install command ready at once.
type sweepCtx struct {
	context.Context
	cancel context.CancelFunc
	victim *core.Pipeline
	once   sync.Once
}

func (c *sweepCtx) Done() <-chan struct{} {
	if c.victim.ActiveQueries() > 0 {
		c.once.Do(func() {
			c.victim.FailNow(errors.New("killed between registration and install"))
			c.cancel()
		})
	}
	return c.Context.Done()
}

// TestSweepBeforeInstallRetiresOnce forces a failure sweep between a
// run's registration and its install command while the submit context
// is canceled. The swept run reports and recycles, so the query's handle
// retires the slot exactly once whichever branch Activate's select takes;
// an extra retire panics in the plane. Afterwards no slot is held, and
// at two shards the sibling keeps serving the queries it can answer.
// Each attempt builds a fresh group, because the select picks among its
// ready cases at random.
func TestSweepBeforeInstallRetiresOnce(t *testing.T) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 400, Seed: 3, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	bind := func(sql string) *query.Bound {
		b, err := query.ParseBind(sql, ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		b.Snapshot = ds.Txn.Begin()
		return b
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for attempt := 0; attempt < 16; attempt++ {
				g, err := New(ds.Star, Config{Shards: shards, Core: core.Config{MaxConcurrent: 4, Workers: 2}})
				if err != nil {
					t.Fatal(err)
				}
				g.Start()
				base, cancel := context.WithCancel(context.Background())
				victim := g.pipes[shards-1]
				ctx := &sweepCtx{Context: base, cancel: cancel, victim: victim}
				if h, err := g.SubmitCtx(ctx, bind("SELECT COUNT(*) AS n FROM lineorder")); err == nil {
					t.Fatalf("attempt %d: submit returned a handle (%v) though its shard died mid-activation", attempt, h)
				}
				cancel()
				deadline := time.Now().Add(10 * time.Second)
				for g.Plane().InUse() != 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := g.Plane().InUse(); got != 0 {
					t.Fatalf("attempt %d: %d plane slots held after the failed submit", attempt, got)
				}
				for quarantined := false; !quarantined; time.Sleep(time.Millisecond) {
					g.mu.Lock()
					quarantined = g.failed[shards-1] != nil
					g.mu.Unlock()
				}
				if shards > 1 {
					servedOne := false
					for _, k := range ds.DateKeys {
						h, err := g.Submit(bind(fmt.Sprintf(
							"SELECT COUNT(*) AS n FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey BETWEEN %d AND %d", k, k)))
						if err != nil {
							var sfe *ShardFailedError
							if !errors.As(err, &sfe) {
								t.Fatalf("attempt %d: untyped rejection %v", attempt, err)
							}
							continue
						}
						if res := h.Wait(); res.Err != nil {
							t.Fatalf("attempt %d: the surviving shard failed a feasible query: %v", attempt, res.Err)
						}
						<-h.Done()
						servedOne = true
						break
					}
					if !servedOne {
						t.Fatalf("attempt %d: the surviving shard served no query", attempt)
					}
				}
				g.Stop()
				if got := g.Plane().InUse(); got != 0 {
					t.Fatalf("attempt %d: %d plane slots held after Stop", attempt, got)
				}
			}
		})
	}
}
