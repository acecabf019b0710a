package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"cjoin/internal/core"
	"cjoin/internal/expr"
	"cjoin/internal/fault"
	"cjoin/internal/query"
)

// stallCtx reports cancellation only once the executor has registered a
// query: every check up to the installation stall sees a live context,
// the check after it sees a canceled one.
type stallCtx struct {
	context.Context
	registered func() bool
}

func (c stallCtx) Err() error {
	if c.registered() {
		return context.Canceled
	}
	return nil
}

type discardSink struct{}

func (discardSink) Consume(*expr.Joined) {}
func (discardSink) Finalize(error)       {}

// TestSubmitWrappersReturnBatchOutcome pins what the single-query entry
// points — each a batch of one — hand back for every way an admission
// can fail. A failure before the plane round takes no slot and publishes
// no snapshot; a cancellation during the installation stall retires the
// admitted slot through the cancel lifecycle.
func TestSubmitWrappersReturnBatchOutcome(t *testing.T) {
	entries := []struct {
		name    string
		takeCtx bool
		submit  func(p *core.Pipeline, ctx context.Context, q *query.Bound) (core.Handle, error)
	}{
		{"SubmitCtx", true, func(p *core.Pipeline, ctx context.Context, q *query.Bound) (core.Handle, error) {
			return p.SubmitCtx(ctx, q)
		}},
		{"Submit", false, func(p *core.Pipeline, _ context.Context, q *query.Bound) (core.Handle, error) {
			return p.Submit(q)
		}},
		{"SubmitWithSink", false, func(p *core.Pipeline, _ context.Context, q *query.Bound) (core.Handle, error) {
			return p.SubmitWithSink(q, discardSink{})
		}},
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var openGate func() // set by the gated stall case: lets its scan reach the next page boundary
	cases := []struct {
		name string
		// arm returns a started pipeline in the failing condition, plus
		// the context (nil: the case is not about contexts, so it runs
		// through every entry point) and query to submit.
		arm  func(t *testing.T) (*core.Pipeline, context.Context, *query.Bound)
		want func(error) bool
		// ctxOnly cases need SubmitCtx; installed marks the one failure
		// that lands after admission, on a gated scan.
		ctxOnly, installed bool
	}{
		{name: "ctx canceled before admission", ctxOnly: true, want: func(err error) bool { return err == canceled.Err() },
			arm: func(t *testing.T) (*core.Pipeline, context.Context, *query.Bound) {
				ds := dataset(t, 300)
				return startPipeline(t, ds, core.Config{MaxConcurrent: 2}), canceled, countStar(t, ds)
			}},
		{name: "slots exhausted", want: func(err error) bool { return err == core.ErrTooManyQueries },
			arm: func(t *testing.T) (*core.Pipeline, context.Context, *query.Bound) {
				p, ds, _ := gatedPipeline(t, 1, 4)
				if _, err := p.Submit(countStar(t, ds)); err != nil { // held: the gate never opens
					t.Fatal(err)
				}
				return p, nil, countStar(t, ds)
			}},
		{name: "bound against another star", want: func(err error) bool { return err == core.ErrSchemaMismatch },
			arm: func(t *testing.T) (*core.Pipeline, context.Context, *query.Bound) {
				ds := dataset(t, 300)
				return startPipeline(t, ds, core.Config{MaxConcurrent: 2}), nil, countStar(t, dataset(t, 300))
			}},
		{name: "stopped executor", want: func(err error) bool { return err == core.ErrPipelineStopped },
			arm: func(t *testing.T) (*core.Pipeline, context.Context, *query.Bound) {
				ds := dataset(t, 300)
				p := startPipeline(t, ds, core.Config{MaxConcurrent: 2})
				p.Stop()
				return p, nil, countStar(t, ds)
			}},
		{name: "injected admit-err", want: func(err error) bool {
			var fe *fault.Error
			return errors.As(err, &fe) && fe.Op == "admit"
		},
			arm: func(t *testing.T) (*core.Pipeline, context.Context, *query.Bound) {
				ds := dataset(t, 300)
				return startPipeline(t, ds, core.Config{MaxConcurrent: 2,
					Fault: injector(t, "seed=1;admit-err=1")}), nil, countStar(t, ds)
			}},
		{name: "ctx canceled during the install stall", ctxOnly: true, installed: true,
			want: func(err error) bool { return err == context.Canceled },
			arm: func(t *testing.T) (*core.Pipeline, context.Context, *query.Bound) {
				// Gated: the installed query cannot finish (and
				// deregister) before the post-install context check.
				p, ds, gs := gatedPipeline(t, 2, 4)
				openGate = func() { gs.gate <- struct{}{} }
				ctx := stallCtx{Context: context.Background(),
					registered: func() bool { return p.ActiveQueries() > 0 }}
				return p, ctx, countStar(t, ds)
			}},
	}
	for _, tc := range cases {
		for _, e := range entries {
			if tc.ctxOnly && !e.takeCtx {
				continue
			}
			t.Run(tc.name+"/"+e.name, func(t *testing.T) {
				p, ctx, q := tc.arm(t)
				if ctx == nil {
					ctx = context.Background()
				}
				pl := p.Plane()
				inUse, publishes := pl.InUse(), pl.Stats().SnapshotPublishes
				h, err := e.submit(p, ctx, q)
				if h != nil || !tc.want(err) {
					t.Fatalf("handle=%v err=%v", h, err)
				}
				if tc.installed {
					if pl.Stats().SnapshotPublishes == publishes {
						t.Fatal("cancellation landed before admission, not during the stall")
					}
					openGate() // the cancel is consumed at the next page boundary
					deadline := time.Now().Add(10 * time.Second)
					for pl.InUse() != 0 || p.ActiveQueries() != 0 {
						if time.Now().After(deadline) {
							t.Fatalf("stall-canceled query never retired: inUse=%d active=%d", pl.InUse(), p.ActiveQueries())
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
	}
}
