package core

import (
	"errors"
	"fmt"
)

// PipelineFailedError is the terminal failure state of a Pipeline,
// delivered to every resident query when a pipeline goroutine panics, a
// scan error exhausts its retries, or a supervisor declares the pipeline
// dead (FailNow). The pipeline stops processing; the process and the
// group's sibling shards keep serving.
type PipelineFailedError struct {
	// Goroutine names where the failure originated: "preprocessor",
	// "distributor", "manager", "stage", or "supervisor".
	Goroutine string
	// Cause is the recovered panic value (wrapped) or the escalated
	// error.
	Cause error
}

func (e *PipelineFailedError) Error() string {
	return fmt.Sprintf("core: pipeline failed in %s: %v", e.Goroutine, e.Cause)
}

func (e *PipelineFailedError) Unwrap() error { return e.Cause }

// panicError boxes a recovered panic value so it can travel as an error.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// Unwrap exposes a panic value that already was an error (e.g.
// *fault.Panic) to errors.As.
func (e *panicError) Unwrap() error {
	if err, ok := e.val.(error); ok {
		return err
	}
	return nil
}

// asCause converts a recovered panic value into an error.
func asCause(r any) error {
	if err, ok := r.(error); ok {
		return &panicError{val: err}
	}
	return &panicError{val: r}
}

// guard is the deferred recovery handler for pipeline goroutines: a
// panic transitions the pipeline to the terminal Failed state instead of
// crashing the process.
func (p *Pipeline) guard(goroutine string) {
	if r := recover(); r != nil {
		p.fail(goroutine, asCause(r))
	}
}

// fail transitions the pipeline to the terminal Failed state: the first
// cause wins, the stop signal tears down every goroutine exactly as Stop
// does, and the sweep reports the typed failure to every resident run
// and recycles it. Each swept run's logical query retires its plane slot
// once its last shard has recycled, so the shared dimension plane of a
// shard group loses no slots to a dead member.
func (p *Pipeline) fail(goroutine string, cause error) {
	ferr := &PipelineFailedError{Goroutine: goroutine, Cause: cause}
	if !p.failure.CompareAndSwap(nil, ferr) {
		return // a failure is already terminal
	}
	p.om.failures.Inc()
	close(p.failedCh)
	if p.stopped.CompareAndSwap(false, true) {
		close(p.stopCh)
	}
	p.sweep(ferr)
	if p.logf != nil {
		p.logf("pipeline failed in %s: %v", goroutine, cause)
	}
}

// FailNow forces the pipeline into the terminal Failed state from the
// outside — the shard supervisor's lever for a stalled (not crashed)
// pipeline. Idempotent; the first cause wins.
func (p *Pipeline) FailNow(cause error) { p.fail("supervisor", cause) }

// Failed returns a channel closed when the pipeline enters the terminal
// Failed state (it stays open through a clean Stop).
func (p *Pipeline) Failed() <-chan struct{} { return p.failedCh }

// FailureCause returns the terminal failure, or nil while the pipeline
// is healthy or merely stopped.
func (p *Pipeline) FailureCause() *PipelineFailedError { return p.failure.Load() }

// terminalErr is the error reported to runs orphaned by shutdown and to
// activations it rejects: the typed failure when the pipeline failed
// (fail stores it before it sets stopped), ErrPipelineStopped on a clean
// Stop.
func (p *Pipeline) terminalErr() error {
	if f := p.failure.Load(); f != nil {
		return f
	}
	return ErrPipelineStopped
}

// ShardState is one pipeline's serving state as reported by /stats and
// /healthz.
type ShardState string

const (
	ShardHealthy ShardState = "healthy"
	ShardFailed  ShardState = "failed"
)

// ShardHealth describes one shard pipeline of the executor.
type ShardHealth struct {
	Shard int        `json:"shard"`
	State ShardState `json:"state"`
	Cause string     `json:"cause,omitempty"`
}

// Health is the executor-level health summary. State is "ok" when every
// shard serves, "degraded" when some — but not all — shards have been
// quarantined, and "failed" when nothing can serve. It lives in core so
// internal/server can surface it without importing internal/shard.
type Health struct {
	State  string        `json:"state"`
	Shards []ShardHealth `json:"shards"`
}

// Degraded reports whether the executor lost capacity but still serves.
func (h Health) Degraded() bool { return h.State == "degraded" }

// transientErr reports whether err models a recoverable condition worth
// retrying at the page boundary (internal/fault.Error and any future
// source error implementing Transient).
func transientErr(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}
