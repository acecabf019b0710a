package core

import (
	"sync/atomic"
	"time"

	"cjoin/internal/bitvec"
	"cjoin/internal/expr"
	"cjoin/internal/fault"
	"cjoin/internal/obs"
	"cjoin/internal/txn"
)

// ppCmd asks the Preprocessor to install a registered query between two
// pages of the continuous scan — the paper's short "stall" window at the
// end of Algorithm 1 (lines 17–22). done is closed once the query-start
// control tuple has been appended to the Preprocessor's output.
type ppCmd struct {
	rq   *runningQuery
	done chan struct{}
}

// preprocessor owns the continuous scan. For every fact tuple τ it
// initializes the bit-vector bτ — bit i set iff query i is active, τ is
// visible to the query's snapshot (§3.5: snapshot association is a
// virtual fact-table predicate), and τ satisfies the query's fact
// predicate c_i0 (§3.2.2) — and drops tuples with bτ == 0. Every query
// completes by one countdown over the page set cut at its activation:
// once each page of the set has been delivered, the scan has wrapped
// back to the query's starting tuple (§3.3.2) or, on a partitioned star,
// covered its needed partitions (§5), and its end-of-query control tuple
// follows that page.
type preprocessor struct {
	p    *Pipeline
	scan *factScan
	cmds chan ppCmd
	// cancels carries runs abandoned via Run.Cancel; the
	// Preprocessor retires them at the next page boundary. Capacity is
	// maxConc (each live query cancels at most once), so senders never
	// block on a healthy pipeline.
	cancels chan *runningQuery
	out     chan *batch
	stop    <-chan struct{}

	seq    uint64
	active []*runningQuery // registered queries, registration order
	// baseMask has the bits of active queries without fact predicates;
	// their bits copy in one vector operation per tuple.
	baseMask bitvec.Vec
	predQ    []*runningQuery // active queries with fact predicates
	mvcc     bool            // fact rows carry xmin/xmax system columns

	scratch expr.Joined // reused for fact-predicate evaluation

	// Cycle timing for the telemetry plane. cycleStart zeroes whenever
	// the scan parks idle, so the cycle-duration histogram only records
	// cycles the scan ran end to end; partial post-idle cycles are
	// discarded rather than reported minutes long.
	cycleStart time.Time
	cyclePages int64

	// pageClock counts pages delivered downstream. It is the one atomic
	// the scan writes per page for progress reporting (§3.2.3): a query
	// every delivered page is charged to reads its progress as the clock
	// minus its registration stamp (runningQuery.pagesScanned).
	pageClock atomic.Int64
}

func newPreprocessor(p *Pipeline) *preprocessor {
	var wrap func(PageSource) PageSource
	if p.fault != nil {
		wrap = func(s PageSource) PageSource {
			// core.PageSource and fault.PageSource are structurally
			// identical; the interface-to-interface assignments convert.
			return p.fault.WrapSource(s, p.stopCh)
		}
	}
	scan := newFactScan(p.star, p.cfg.FactSource, p.partSubset, wrap)
	return &preprocessor{
		p:        p,
		scan:     scan,
		cmds:     make(chan ppCmd),
		cancels:  make(chan *runningQuery, p.cfg.MaxConcurrent),
		out:      make(chan *batch, queueLen),
		stop:     p.stopCh,
		baseMask: bitvec.New(p.cfg.MaxConcurrent),
		mvcc:     p.star.Fact.Hidden >= 2,
	}
}

func (pp *preprocessor) run() {
	defer close(pp.out)
	defer pp.p.guard("preprocessor")
	for {
		pp.p.fault.PanicPoint(fault.SitePreprocessor)
		if len(pp.active) == 0 {
			// Idle: the always-on pipeline parks instead of spinning
			// the scan.
			pp.cycleStart = time.Time{}
			select {
			case cmd := <-pp.cmds:
				pp.register(cmd)
			case rq := <-pp.cancels:
				pp.retire(rq)
			case <-pp.stop:
				return
			}
			continue
		}
		select {
		case cmd := <-pp.cmds:
			pp.register(cmd)
			continue
		case rq := <-pp.cancels:
			pp.retire(rq)
			continue
		case <-pp.stop:
			return
		default:
		}

		// The batch is taken before the read so the page decodes straight
		// into its row arena; every path that emits nothing hands it back.
		b := pp.p.pool.get(pp.stop)
		if b == nil {
			return
		}
		n, part, page, wrapped, err := pp.nextPageRetry(b.rowArena)
		if k := pp.scan.takeSkipped(); k > 0 {
			pp.p.om.zmSkipped.Add(k)
		}
		if err != nil {
			pp.p.pool.put(b)
			select {
			case <-pp.stop:
				// Shutdown raced the error; a clean stop wins.
				return
			default:
			}
			// Retries exhausted or a hard failure: the scan cannot make
			// progress, so the pipeline transitions to the terminal
			// Failed state. fail's sweep reports the typed cause for
			// every resident query; under a shard group the siblings
			// keep serving.
			pp.p.fail("preprocessor", err)
			return
		}
		if n == 0 {
			// Nothing scannable; only control work remains.
			pp.p.pool.put(b)
			continue
		}
		pp.p.om.pagesRead.Inc()
		pp.cyclePages++
		// A cycle boundary is the first page of a pass: the scan wrapped,
		// or this is the first page after an idle park. (Position 0 is not
		// a reliable boundary once pruning can skip page 0.)
		if wrapped || pp.cycleStart.IsZero() {
			pp.p.om.cycles.Inc()
			if !pp.cycleStart.IsZero() {
				pp.p.om.cycleDur.ObserveSince(pp.cycleStart)
				pp.p.om.cyclePages.Observe(pp.cyclePages - 1)
			}
			pp.cycleStart = time.Now()
			pp.cyclePages = 1
		}

		if !pp.emitPage(b, n) {
			return
		}
		pp.afterPage(part, page)
	}
}

// A transient fact-scan error is retried at the same page boundary up to
// scanRetries times, the first after scanRetryBackoff, each later one
// after twice the last (at most maxScanRetryBackoff), before the pipeline
// escalates to the terminal Failed state.
const (
	scanRetries         = 4
	scanRetryBackoff    = 500 * time.Microsecond
	maxScanRetryBackoff = 100 * time.Millisecond
)

// nextPageRetry wraps factScan.nextPage with capped exponential backoff
// for transient errors (fault.Error and any source error implementing
// Transient() bool). nextPage does not advance past a failed read, so
// every retry re-decodes the same page into the same dst. Hard errors
// and exhausted retries return to the caller for escalation; a pipeline
// stop during backoff returns the pending error, which the caller's stop
// check supersedes.
func (pp *preprocessor) nextPageRetry(dst []int64) (n, part, page int, wrapped bool, err error) {
	backoff := scanRetryBackoff
	for attempt := 0; ; attempt++ {
		n, part, page, wrapped, err = pp.scan.nextPage(dst, pp.skipPart, pp.skipPage)
		if err == nil || !transientErr(err) || attempt >= scanRetries {
			return
		}
		pp.p.om.retries.Inc()
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-pp.stop:
			t.Stop()
			return
		}
		if backoff *= 2; backoff > maxScanRetryBackoff {
			backoff = maxScanRetryBackoff
		}
	}
}

func (pp *preprocessor) nextSeq() uint64 {
	s := pp.seq
	pp.seq++
	return s
}

// emit sends a batch downstream; it returns false when the pipeline is
// stopping.
func (pp *preprocessor) emit(b *batch) bool {
	select {
	case pp.out <- b:
		return true
	case <-pp.stop:
		return false
	}
}

// register installs a new query (Algorithm 1 lines 19–22): extend Q,
// start its countdown, emit the query-start control tuple, resume.
//
// This is the paper's stall: the scan is paused for exactly as long as
// this function runs (cjoin_register_stall_seconds), so it only stamps
// and counts, O(partitions) whatever the page count. The query's page
// sets were cut by the submitter before the command was sent
// (factScan.needPagesFor), one per partition this scan covers: a shard's
// scan may hold only a dealt subset, and pages the query needs on OTHER
// shards are theirs to count. From here on the sets alone decide what
// the scan reads (skipPart, skipPage); pages appended since the cut lie
// beyond them, so completion means "every page of the sets delivered
// exactly once", wherever the scan stood at registration.
func (pp *preprocessor) register(cmd ppCmd) {
	defer pp.p.om.registerStall.ObserveSince(time.Now())
	rq := cmd.rq
	rq.startClock = pp.pageClock.Load()
	rq.clock = &pp.pageClock
	rq.ownPages.Store(-1) // ride the clock; publishes the two fields above
	var prunedPart, prunedZone int64
	for _, ps := range rq.needPages {
		rq.pagesLeft += ps.needed
		if ps.partPruned {
			prunedPart += int64(ps.frozen)
		} else {
			prunedZone += int64(ps.frozen) - ps.needed
		}
	}
	rq.pagesTotal.Store(rq.pagesLeft)
	pp.p.om.prunedPart.Add(prunedPart)
	pp.p.om.prunedZone.Add(prunedZone)
	pp.active = append(pp.active, rq)
	if rq.q.HasFactPred() {
		pp.predQ = append(pp.predQ, rq)
	} else {
		pp.baseMask.Set(rq.slot)
	}
	pp.emit(ctrlBatch(pp.nextSeq(), ctrlStart, rq, nil))
	close(cmd.done)

	// A query needing zero pages (e.g. every partition pruned, every page
	// zone-mapped away, or an empty fact table) completes immediately.
	if rq.pagesLeft == 0 {
		pp.finish(rq)
	}
}

// retire handles a canceled query: if it is still part of the continuous
// scan it is finalized early, exactly as if its completion point had been
// reached — the end-of-query control tuple flows through the pipeline in
// order, the Distributor reports the partial (the logical query, already
// canceled, discards it), and Algorithm 2 recycles the slot. A query
// that already finished naturally is left alone.
func (pp *preprocessor) retire(rq *runningQuery) {
	for _, q := range pp.active {
		if q == rq {
			pp.finish(rq)
			return
		}
	}
}

// finish emits the end-of-query control tuple and removes the query from
// the Preprocessor's state (§3.3.2).
func (pp *preprocessor) finish(rq *runningQuery) {
	rq.detachClock() // freeze the final page count
	pp.baseMask.Clear(rq.slot)
	for i, q := range pp.active {
		if q == rq {
			pp.active = append(pp.active[:i], pp.active[i+1:]...)
			break
		}
	}
	for i, q := range pp.predQ {
		if q == rq {
			pp.predQ = append(pp.predQ[:i], pp.predQ[i+1:]...)
			break
		}
	}
	pp.emit(ctrlBatch(pp.nextSeq(), ctrlEnd, rq, nil))
}

// afterPage performs the per-page countdown and finalizes the queries
// whose page sets are fully covered. The scan reads only pages some
// resident set holds, and each page is charged to exactly the queries
// whose sets hold it: for the others (a pruned partition, a
// zone-mapped-away page, a page appended after their cut) the scan read
// it on another query's behalf, and their countdowns do not move.
//
// Progress is published with one atomic per page — the clock tick at the
// end — as long as every resident query is charged. A query this page
// passes over leaves the clock before the tick (detachClock) and from
// then on pays its own atomic per charged page.
func (pp *preprocessor) afterPage(part, page int) {
	for i := 0; i < len(pp.active); i++ {
		rq := pp.active[i]
		if !rq.pageNeeded(part, page) {
			rq.detachClock()
			continue
		}
		rq.pagesLeft--
		if !rq.sawFirstPage {
			rq.sawFirstPage = true
			rq.q.Trace.Mark(obs.StageFirstPage)
		}
		if rq.pagesLeft == 0 {
			// Finishing ahead of this page's tick: leave the clock first
			// so the frozen count includes the page.
			rq.detachClock()
		}
		if rq.ownPages.Load() >= 0 {
			rq.ownPages.Add(1)
		}
		if rq.pagesLeft == 0 {
			pp.finish(rq)
			i--
		}
	}
	pp.pageClock.Add(1)
}

// skipPart reports whether no resident query needs a page of scan-local
// partition part (§5: the continuous scan covers only the union of
// needed partitions).
func (pp *preprocessor) skipPart(part int) bool {
	for _, rq := range pp.active {
		if rq.needPages[part].needed > 0 {
			return false
		}
	}
	return true
}

// skipPage reports whether no resident query's page set holds the given
// page of scan-local partition part: the scan reads exactly the union of
// the resident sets. A page appended after every resident cut is in no
// set, and its rows are invisible to every resident snapshot.
func (pp *preprocessor) skipPage(part, page int) bool {
	for _, rq := range pp.active {
		if rq.pageNeeded(part, page) {
			return false
		}
	}
	return true
}

// emitPage turns the n rows ReadPage decoded into b's row arena into one
// data batch: it initializes every tuple's bit-vector and selects the
// tuples relevant to at least one query. It returns false when the
// pipeline is stopping.
func (pp *preprocessor) emitPage(b *batch, n int) bool {
	pp.p.om.tuplesIn.Add(int64(n))
	clear(b.dimSlot[:n*b.ndims])
	sel := b.sel[:0]
	if b.words == 1 && len(pp.predQ) == 0 && !pp.pageDirty(b, n) {
		// Fast path: every tuple is visible to every resident query and
		// none has a fact predicate, so bτ is the same word for all rows.
		if w := pp.baseMask[0]; w != 0 {
			sel = sel[:n]
			bvs := b.bvArena[:n]
			for r := range sel {
				bvs[r] = w
				sel[r] = int32(r)
			}
		}
	} else {
		for r := 0; r < n; r++ {
			row := b.row(int32(r))
			bv := b.bv(int32(r))
			bv.CopyFrom(pp.baseMask)

			mvccRow := pp.mvcc && (row[0] != 0 || row[1] != 0)
			if mvccRow {
				// Slow path: per-query snapshot visibility (§3.5).
				for _, rq := range pp.active {
					if !rq.q.HasFactPred() && !txn.Visible(row[0], row[1], rq.q.Snapshot) {
						bv.Clear(rq.slot)
					}
				}
			}
			for _, rq := range pp.predQ {
				if mvccRow && !txn.Visible(row[0], row[1], rq.q.Snapshot) {
					continue
				}
				pp.scratch.Fact = row
				if rq.q.FactPred.Eval(&pp.scratch) != 0 {
					bv.Set(rq.slot)
				}
			}
			if !bv.IsZero() {
				sel = append(sel, int32(r))
			}
		}
	}
	b.sel = sel
	if len(sel) == 0 {
		pp.p.pool.put(b)
		return true
	}
	b.seq = pp.nextSeq()
	pp.p.om.tuplesOut.Add(int64(len(sel)))
	return pp.emit(b)
}

// pageDirty reports whether any of the page's n rows carries a non-zero
// xmin or xmax, i.e. needs the per-query visibility check (§3.5).
func (pp *preprocessor) pageDirty(b *batch, n int) bool {
	if !pp.mvcc {
		return false
	}
	var dirty int64
	rows, ncols := b.rowArena, b.ncols
	for r := 0; r < n; r++ {
		dirty |= rows[r*ncols] | rows[r*ncols+1]
	}
	return dirty != 0
}
