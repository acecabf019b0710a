package core

import (
	"context"
	"errors"
	"testing"

	"cjoin/internal/catalog"
	"cjoin/internal/dimplane"
	"cjoin/internal/query"
)

// NewTestPipeline builds one shard pipeline (over a private one-prober
// plane unless sc brings one) for tests of a pipeline's internals.
func NewTestPipeline(tb testing.TB, star *catalog.Star, cfg Config, sc ShardConfig) *Pipeline {
	if sc.Plane == nil {
		sc.Plane = dimplane.New(star, 1, dimplane.Config{MaxConcurrent: cfg.Normalized().MaxConcurrent})
	}
	p, err := NewPipeline(star, cfg, sc)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(p.Stop)
	return p
}

// Admit is the tests' one admission path outside internal/shard: a plane
// round of one, then Activate, compensating a failed activation with the
// Retire that Activate's contract leaves to the caller.
func (p *Pipeline) Admit(q *query.Bound) (Handle, error) {
	slots, err := p.plane.AdmitBatch(context.Background(), []*query.Bound{q})
	if err != nil {
		return nil, err
	}
	h, err := p.Activate(context.Background(), q, slots[0], nil)
	if err != nil && !errors.Is(err, ErrPipelineStopped) {
		p.plane.Retire(slots[0])
	}
	return h, err
}
