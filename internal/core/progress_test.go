package core_test

import (
	"testing"
	"time"

	"cjoin/internal/core"
)

// TestProgressAndETALifecycle drives a query through the three §3.2.3
// states with a gated scan: zero progress (no ETA yet), mid-scan
// (fractional progress, finite ETA), and completed (progress 1, ETA 0).
func TestProgressAndETALifecycle(t *testing.T) {
	p, ds, gs := gatedPipeline(t, 2, 4)
	h, err := p.Submit(countStar(t, ds))
	if err != nil {
		t.Fatal(err)
	}

	// Zero progress: nothing scanned yet.
	if got := h.Progress(); got != 0 {
		t.Fatalf("initial progress %v", got)
	}
	if eta, ok := h.ETA(); ok {
		t.Fatalf("ETA known with zero progress: %v", eta)
	}
	if h.PagesScanned() != 0 {
		t.Fatalf("pages scanned %d", h.PagesScanned())
	}

	// Mid-scan: release half the pages.
	gs.gate <- struct{}{}
	gs.gate <- struct{}{}
	deadline := time.Now().Add(10 * time.Second)
	for h.PagesScanned() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stuck at %d pages", h.PagesScanned())
		}
		time.Sleep(50 * time.Microsecond)
	}
	if got := h.Progress(); got < 0.5 || got >= 1 {
		t.Fatalf("mid-scan progress %v, want [0.5, 1)", got)
	}
	eta, ok := h.ETA()
	if !ok {
		t.Fatal("ETA unknown mid-scan")
	}
	if eta <= 0 {
		t.Fatalf("mid-scan ETA %v, want > 0", eta)
	}

	// Completed: release the other half. The countdown ends the query
	// right after its last page, so no further read is needed.
	gs.gate <- struct{}{}
	gs.gate <- struct{}{}
	res := h.Wait()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := h.Progress(); got != 1 {
		t.Fatalf("final progress %v", got)
	}
	eta, ok = h.ETA()
	if !ok || eta != 0 {
		t.Fatalf("final ETA %v ok=%v, want 0 true", eta, ok)
	}
	if got := h.PagesScanned(); got != 4 {
		t.Fatalf("pages scanned %d, want 4", got)
	}
	if want := int64(4 * 8); res.Rows[0].Ints[0] != want {
		t.Fatalf("count %d want %d", res.Rows[0].Ints[0], want)
	}
}

// TestProgressMonotonic samples progress while the gate releases pages
// one at a time: the sequence must be non-decreasing and hit known
// fractions at each page boundary.
func TestProgressMonotonic(t *testing.T) {
	p, ds, gs := gatedPipeline(t, 2, 8)
	h, err := p.Submit(countStar(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	last := h.Progress()
	for page := 1; page <= 8; page++ {
		gs.gate <- struct{}{}
		deadline := time.Now().Add(10 * time.Second)
		for h.PagesScanned() < int64(page) {
			if time.Now().After(deadline) {
				t.Fatalf("stuck at %d pages", h.PagesScanned())
			}
			time.Sleep(20 * time.Microsecond)
		}
		got := h.Progress()
		if got < last {
			t.Fatalf("progress regressed %v -> %v", last, got)
		}
		if want := float64(page) / 8; got != want {
			t.Fatalf("page %d progress %v want %v", page, got, want)
		}
		last = got
	}
	// The eighth page was the last of the query's set: it has completed
	// without another read.
	if res := h.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestETAConvergesToElapsed checks the §3.2.3 rate model on a real
// (unthrottled) scan: once the query completes, ETA is 0/true, and during
// the run every reported ETA stays finite and non-negative.
func TestETAConvergesToElapsed(t *testing.T) {
	ds := dataset(t, 4000)
	p := startPipeline(t, ds, core.Config{MaxConcurrent: 4})
	h, err := p.Submit(countStar(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan core.QueryResult, 1)
	go func() { done <- h.Wait() }()
	for {
		select {
		case res := <-done:
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if eta, ok := h.ETA(); !ok || eta != 0 {
				t.Fatalf("post-completion ETA %v ok=%v", eta, ok)
			}
			return
		default:
			if eta, ok := h.ETA(); ok && eta < 0 {
				t.Fatalf("negative ETA %v", eta)
			}
		}
	}
}
