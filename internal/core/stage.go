package core

import (
	"sync"
	"time"
)

// stageLayout returns the Stages the configured layout creates (§4) —
// for each, the Filters it applies in order, nil meaning "the pipeline's
// current optimized filter order" — and the worker threads every Stage
// runs.
func stageLayout(cfg Config, ndims int) (stages [][]int, workers int) {
	switch cfg.Layout {
	case Vertical:
		// One single-threaded Stage per Filter, chained.
		for d := 0; d < ndims; d++ {
			stages = append(stages, []int{d})
		}
		return stages, 1
	default: // Horizontal
		// One Stage running the whole (dynamically ordered) Filter
		// sequence on Workers threads.
		return [][]int{nil}, cfg.Workers
	}
}

// startStages wires the Filter sequence between the Preprocessor output
// and the Distributor input according to the configured layout (§4) and
// returns the channel the Distributor should consume.
//
// Control batches pass through Stages untouched; batch sequence numbers
// let the Distributor restore global order, so Stages are free to process
// batches concurrently.
func (p *Pipeline) startStages(in chan *batch) chan *batch {
	stages, workers := stageLayout(p.cfg, len(p.dimStates))
	cur := in
	for _, dims := range stages {
		cur = p.startStage(cur, dims, workers)
	}
	return cur
}

// startStage launches workers consuming in and producing a new output
// channel. dims lists the Filters this Stage applies in order; nil means
// "use the pipeline's current optimized filter order" (horizontal mode).
func (p *Pipeline) startStage(in chan *batch, dims []int, workers int) chan *batch {
	out := make(chan *batch, queueLen)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker panic fails the pipeline, not the process; the
			// siblings unwind through the stop signal.
			defer p.guard("stage")
			// Batch timings are sampled 1-in-8 per worker: two clock
			// reads per ~µs-scale batch would be the single largest
			// telemetry cost on the hot loop, and the sampled mean is
			// the same number.
			var sampleTick uint
			for b := range in {
				if b.ctrl == nil {
					order := dims
					if order == nil {
						order = *p.filterOrder.Load()
					}
					timed := sampleTick&7 == 0
					sampleTick++
					var probeStart time.Time
					if timed {
						probeStart = time.Now()
					}
					for _, d := range order {
						if len(b.sel) == 0 {
							break
						}
						p.dimStates[d].filterBatch(b)
					}
					if timed {
						p.om.filterBatch.ObserveSince(probeStart)
					}
				}
				// An emptied batch still travels to the Distributor: seq
				// must stay contiguous.
				select {
				case out <- b:
				case <-p.stopCh:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
