package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/expr"
	"cjoin/internal/fault"
	"cjoin/internal/query"
	"cjoin/internal/ssb"
)

// gatedSource is a PageSource whose page reads block until a token
// arrives on gate, so a submitted query stays resident for as long as
// the test wants. Rows are all-zero (visible to every snapshot).
type gatedSource struct {
	cols, rows, pages int
	gate              chan struct{}
}

func (g *gatedSource) NumCols() int     { return g.cols }
func (g *gatedSource) RowsPerPage() int { return g.rows }
func (g *gatedSource) NumPages() int    { return g.pages }

func (g *gatedSource) ReadPage(_ int, dst []int64, _ []byte) (int, error) {
	<-g.gate
	clear(dst[:g.rows*g.cols])
	return g.rows, nil
}

// stallCtx reports cancellation only once every shard has registered a
// query: every check up to the installation stall sees a live context,
// the check after it sees a canceled one.
type stallCtx struct {
	context.Context
	g *Group
}

func (c stallCtx) Err() error {
	for _, p := range c.g.pipes {
		if p.ActiveQueries() == 0 {
			return nil
		}
	}
	return context.Canceled
}

type discardSink struct{}

func (discardSink) Consume(*expr.Joined) {}
func (discardSink) Finalize(error)       {}

// TestGroupSubmitWrappersReturnBatchOutcome pins what the single-query
// entry points — Submit, SubmitCtx and SubmitWithSink, each the one
// admission body with a batch of one — hand back for every way an
// admission can fail, at one shard and at two. A failure before the
// plane round takes no slot and publishes no snapshot; a cancellation
// during the installation stall retires the admitted slot through every
// shard's cancel lifecycle.
func TestGroupSubmitWrappersReturnBatchOutcome(t *testing.T) {
	gen := func(t *testing.T) *ssb.Dataset {
		ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 100, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	countStar := func(t *testing.T, ds *ssb.Dataset) *query.Bound {
		q, err := query.ParseBind("SELECT COUNT(*) AS n FROM lineorder", ds.Star)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	// gated starts a group over a gated scan; the returned func lets each
	// shard read one page.
	gated := func(t *testing.T, ds *ssb.Dataset, shards, maxConc int, spec *fault.Spec) (*Group, func()) {
		gs := &gatedSource{cols: ds.Lineorder.Heap.NumCols(), rows: 8, pages: 8, gate: make(chan struct{}, 64)}
		g, err := New(ds.Star, Config{Shards: shards, Fault: spec,
			Core: core.Config{MaxConcurrent: maxConc, Workers: 2, FactSource: gs}})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		t.Cleanup(func() {
			close(gs.gate) // release any blocked read so Stop can finish
			g.Stop()
		})
		return g, func() {
			for range shards {
				gs.gate <- struct{}{}
			}
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var openGate func() // set by the stall case: lets its scans reach the next page boundary

	cases := []struct {
		name string
		// arm returns a started group of the given shard count in the
		// failing condition, plus the context (nil: the case is not about
		// contexts, so it also runs through Submit and SubmitWithSink) and
		// query to submit.
		arm  func(t *testing.T, shards int) (*Group, context.Context, *query.Bound)
		want func(error) bool
		// ctxOnly cases need SubmitCtx; installed marks the one failure
		// that lands after admission.
		ctxOnly, installed bool
	}{
		{name: "ctx canceled before admission", ctxOnly: true, want: func(err error) bool { return err == canceled.Err() },
			arm: func(t *testing.T, shards int) (*Group, context.Context, *query.Bound) {
				ds := gen(t)
				g, _ := gated(t, ds, shards, 2, nil)
				return g, canceled, countStar(t, ds)
			}},
		{name: "slots exhausted", want: func(err error) bool { return err == core.ErrTooManyQueries },
			arm: func(t *testing.T, shards int) (*Group, context.Context, *query.Bound) {
				ds := gen(t)
				g, _ := gated(t, ds, shards, 1, nil)
				if _, err := g.Submit(countStar(t, ds)); err != nil { // held: the gate stays shut
					t.Fatal(err)
				}
				return g, nil, countStar(t, ds)
			}},
		{name: "bound against another star", want: func(err error) bool { return err == core.ErrSchemaMismatch },
			arm: func(t *testing.T, shards int) (*Group, context.Context, *query.Bound) {
				g, _ := gated(t, gen(t), shards, 2, nil)
				return g, nil, countStar(t, gen(t))
			}},
		{name: "stopped executor", want: func(err error) bool { return err == core.ErrPipelineStopped },
			arm: func(t *testing.T, shards int) (*Group, context.Context, *query.Bound) {
				ds := gen(t)
				g, err := New(ds.Star, Config{Shards: shards, Core: core.Config{MaxConcurrent: 2, Workers: 2}})
				if err != nil {
					t.Fatal(err)
				}
				g.Start()
				g.Stop()
				return g, nil, countStar(t, ds)
			}},
		{name: "injected admit-err", want: func(err error) bool {
			var fe *fault.Error
			return errors.As(err, &fe) && fe.Op == "admit"
		},
			arm: func(t *testing.T, shards int) (*Group, context.Context, *query.Bound) {
				spec, err := fault.Parse("seed=1;admit-err=1")
				if err != nil {
					t.Fatal(err)
				}
				ds := gen(t)
				g, _ := gated(t, ds, shards, 2, spec)
				return g, nil, countStar(t, ds)
			}},
		{name: "ctx canceled during the install stall", ctxOnly: true, installed: true,
			want: func(err error) bool { return err == context.Canceled },
			arm: func(t *testing.T, shards int) (*Group, context.Context, *query.Bound) {
				// Gated: the installed query cannot finish (and
				// deregister) before the post-install context check.
				ds := gen(t)
				var g *Group
				g, openGate = gated(t, ds, shards, 2, nil)
				return g, stallCtx{Context: context.Background(), g: g}, countStar(t, ds)
			}},
	}
	for _, tc := range cases {
		for _, entry := range []string{"SubmitCtx", "Submit", "SubmitWithSink"} {
			if tc.ctxOnly && entry != "SubmitCtx" {
				continue
			}
			t.Run(tc.name+"/"+entry, func(t *testing.T) {
				for _, shards := range []int{1, 2} {
					t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
						g, ctx, q := tc.arm(t, shards)
						pl := g.Plane()
						inUse, publishes := pl.InUse(), pl.Stats().SnapshotPublishes
						var h core.Handle
						var err error
						switch entry {
						case "Submit":
							h, err = g.Submit(q)
						case "SubmitWithSink":
							h, err = g.SubmitWithSink(q, discardSink{})
						default:
							if ctx == nil {
								ctx = context.Background()
							}
							h, err = g.SubmitCtx(ctx, q)
						}
						if h != nil || !tc.want(err) {
							t.Fatalf("handle=%v err=%v", h, err)
						}
						if tc.installed {
							if pl.Stats().SnapshotPublishes == publishes {
								t.Fatal("cancellation landed before admission, not during the stall")
							}
							openGate() // each shard consumes the cancel at its next page boundary
							deadline := time.Now().Add(10 * time.Second)
							for pl.InUse() != 0 || g.ActiveQueries() != 0 {
								if time.Now().After(deadline) {
									t.Fatalf("stall-canceled query never retired: inUse=%d active=%d", pl.InUse(), g.ActiveQueries())
								}
								time.Sleep(50 * time.Microsecond)
							}
							return
						}
						if got := pl.InUse(); got != inUse {
							t.Fatalf("failed admission holds a slot: InUse %d -> %d", inUse, got)
						}
						if got := pl.Stats().SnapshotPublishes; got != publishes {
							t.Fatalf("failed admission published snapshots: %d -> %d", publishes, got)
						}
					})
				}
			})
		}
	}
}
