package server

// Wire types of the cjoind HTTP/JSON API, shared with the typed Go
// client (internal/server/client).

// SubmitRequest is the body of POST /query.
type SubmitRequest struct {
	// SQL is the star query text (internal/sql subset).
	SQL string `json:"sql"`
	// Client optionally attributes the query in fairness accounting.
	Client string `json:"client,omitempty"`
	// MaxWaitMillis optionally bounds the queue wait; the query fails
	// with state "expired" if no pipeline slot frees up in time.
	// 0 uses the server default, negative disables the deadline.
	MaxWaitMillis int64 `json:"max_wait_ms,omitempty"`
}

// UpdateRequest is the body of POST /update — one snapshot-isolated
// commit against the warehouse (§3.5).
type UpdateRequest struct {
	// Op selects the write: "append" (fact rows), "delete" (one fact
	// row) or "dim-update" (one dimension cell).
	Op string `json:"op"`
	// Rows holds visible-column fact rows for op "append"; system
	// columns (xmin/xmax) are stamped by the server inside the commit.
	Rows [][]any `json:"rows,omitempty"`
	// Row is the target row index: the fact row for op "delete", the
	// dimension row for op "dim-update".
	Row *int64 `json:"row,omitempty"`
	// Table and Column address the dimension cell for op "dim-update".
	Table  string `json:"table,omitempty"`
	Column string `json:"column,omitempty"`
	// Value is the new cell value (number for Int columns, string for
	// dictionary columns).
	Value any `json:"value,omitempty"`
}

// UpdateResponse is the body of a successful POST /update.
type UpdateResponse struct {
	Op string `json:"op"`
	// Snapshot is the published commit id: queries whose snapshot is
	// >= this value see the write, earlier snapshots do not. A failed
	// commit publishes no snapshot (the request errors instead).
	Snapshot     uint64 `json:"snapshot"`
	RowsAffected int    `json:"rows_affected"`
}

// QueryStatus describes one submitted query; it is returned by
// POST /query (202) and GET /query/{id}.
type QueryStatus struct {
	ID    string `json:"id"`
	SQL   string `json:"sql,omitempty"`
	State string `json:"state"` // queued|admitting|running|done|failed|canceled|expired

	// QueuePos is the 1-based position in the admission queue while the
	// query waits; 0 otherwise.
	QueuePos int `json:"queue_pos,omitempty"`
	// QueueWaitMillis is the time spent waiting for admission.
	QueueWaitMillis int64 `json:"queue_wait_ms"`

	// Progress is the fraction of the scan cycle completed, in [0,1]
	// (§3.2.3 of the paper). Zero while queued.
	Progress float64 `json:"progress"`
	// ETAMillis estimates the time to completion from the current scan
	// rate; valid only when ETAKnown.
	ETAMillis int64 `json:"eta_ms"`
	ETAKnown  bool  `json:"eta_known"`
	// PagesScanned is the number of fact pages charged to the query.
	PagesScanned int64 `json:"pages_scanned"`
	// SubmissionMicros is the paper's "submission time" (§6.2.2): how
	// long pipeline registration took, once admitted.
	SubmissionMicros int64 `json:"submission_us,omitempty"`
	// Slot is the query's CJOIN identifier while registered (slot ids
	// start at 0); -1 while the query has not been admitted.
	Slot int `json:"slot"`

	// Error carries the failure message for failed/canceled/expired
	// queries.
	Error string `json:"error,omitempty"`
}

// ResultResponse is the body of GET /query/{id}/result.
type ResultResponse struct {
	ID      string   `json:"id"`
	State   string   `json:"state"`
	Columns []string `json:"columns,omitempty"`
	// Rows hold decoded cells: dictionary-encoded columns come back as
	// strings, AVG aggregates as floats, everything else as integers.
	Rows     [][]any `json:"rows,omitempty"`
	RowCount int     `json:"row_count"`
	// ElapsedMillis is submit-to-completion wall time as seen by the
	// server.
	ElapsedMillis int64  `json:"elapsed_ms"`
	Error         string `json:"error,omitempty"`
}

// CancelResponse is the body of DELETE /query/{id}.
type CancelResponse struct {
	ID       string `json:"id"`
	Canceled bool   `json:"canceled"`
	State    string `json:"state"`
}

// AdmissionStats mirrors admission.Stats.
type AdmissionStats struct {
	Depth     int   `json:"depth"`
	Running   int   `json:"running"`
	Capacity  int   `json:"capacity"`
	MaxQueue  int   `json:"max_queue"`
	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Expired   int64 `json:"expired"`
	Rejected  int64 `json:"rejected"`
	MaxDepth  int   `json:"max_depth"`

	MeanWaitMillis float64 `json:"mean_wait_ms"`
	MaxWaitMillis  float64 `json:"max_wait_ms"`

	PerClient map[string]ClientStats `json:"per_client,omitempty"`
}

// ClientStats is the per-client fairness ledger.
type ClientStats struct {
	Submitted       int64   `json:"submitted"`
	Admitted        int64   `json:"admitted"`
	Finished        int64   `json:"finished"`
	MeanWaitMillis  float64 `json:"mean_wait_ms"`
	MaxWaitMillis   float64 `json:"max_wait_ms"`
	TotalWaitMillis float64 `json:"total_wait_ms"`
}

// FilterStats mirrors core.FilterStats.
type FilterStats struct {
	Dimension string  `json:"dimension"`
	Stored    int     `json:"stored"`
	TuplesIn  int64   `json:"tuples_in"`
	Probes    int64   `json:"probes"`
	Drops     int64   `json:"drops"`
	DropRate  float64 `json:"drop_rate"`
}

// PipelineStats mirrors core.Stats; the merged entry also carries the
// dimension plane's dimplane.Stats.
type PipelineStats struct {
	MaxConcurrent int           `json:"max_concurrent"`
	Active        int           `json:"active"`
	TuplesScanned int64         `json:"tuples_scanned"`
	TuplesEmitted int64         `json:"tuples_emitted"`
	PagesRead     int64         `json:"pages_read"`
	ScanCycles    int64         `json:"scan_cycles"`
	ScanRetries   int64         `json:"scan_retries,omitempty"`
	FilterOrder   []string      `json:"filter_order"`
	Filters       []FilterStats `json:"filters"`

	// Two-level scan pruning: pages charged away from queries at
	// admission, split by cause (§5 partition pruning vs page-level zone
	// maps), and pages the continuous scan physically skipped because no
	// resident query's zone-map bitmap needed them.
	PagesPrunedPartition int64 `json:"pages_pruned_partition,omitempty"`
	PagesPrunedZonemap   int64 `json:"pages_pruned_zonemap,omitempty"`
	PagesSkippedZonemap  int64 `json:"pages_skipped_zonemap,omitempty"`

	// State is the pipeline's serving state ("healthy" or "failed");
	// FailureCause carries the terminal failure for a failed entry. On
	// the merged entry of a sharded group, State is "failed" only when
	// every shard is down — partial loss shows on the per-shard entries
	// and the top-level Degraded flag.
	State        string `json:"state,omitempty"`
	FailureCause string `json:"failure_cause,omitempty"`

	// Dimension-plane figures: admission runs once per logical query on
	// the shared plane (no ×N growth with -shards), and the plane's
	// dimension stores are shared by every shard, so memory is reported
	// once — on the merged pipeline entry, with per-shard entries zero.
	DimAdmits      int64 `json:"dim_admits,omitempty"`
	DimAdmitMicros int64 `json:"dim_admit_us,omitempty"`
	PlaneBytes     int64 `json:"plane_bytes,omitempty"`
	PlanePeakBytes int64 `json:"plane_peak_bytes,omitempty"`
	PlanePipelines int   `json:"plane_pipelines,omitempty"`

	// Batch-admission and predicate-scan-cache figures (PR 8): hits
	// count dimension predicate scans skipped via the memoized scan
	// cache (or batch-local template reuse), publishes count dimension
	// store COW snapshot publications — the quantity batching amortizes
	// (K queries per batch cost one publication per store instead of K),
	// and batch_queries ÷ batch_admits is the realized batch-size mean
	// (batch_admits counts every plane round, a lone query being a round
	// of one; batch_queries therefore equals dim_admits).
	PlaneCacheHits    int64 `json:"plane_cache_hits,omitempty"`
	PlaneCacheMisses  int64 `json:"plane_cache_misses,omitempty"`
	PlanePublishes    int64 `json:"plane_snapshot_publishes,omitempty"`
	PlaneBatchAdmits  int64 `json:"plane_batch_admits,omitempty"`
	PlaneBatchQueries int64 `json:"plane_batch_queries,omitempty"`

	// Partitions is the number of §5 range partitions behind this entry:
	// on the merged pipeline entry, the star's partition count; on a
	// per-shard entry of a partition-dealt group, the partitions dealt to
	// that shard. Absent for unpartitioned stars.
	Partitions int `json:"partitions,omitempty"`

	// CollectedAtUnixMillis is when this snapshot's counters were read
	// (server clock). Scrapers divide counter deltas by the difference of
	// two snapshots' collection times to get rates without assuming
	// anything about their own polling jitter.
	CollectedAtUnixMillis int64 `json:"collected_at_unix_ms,omitempty"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	UptimeMillis int64 `json:"uptime_ms"`
	Draining     bool  `json:"draining"`
	// Degraded reports that the executor lost shards but keeps serving
	// on the survivors; the per-shard entries carry which and why.
	Degraded  bool           `json:"degraded,omitempty"`
	Pipeline  PipelineStats  `json:"pipeline"`
	Admission AdmissionStats `json:"admission"`
	// Shards breaks Pipeline down per shard of the executor's group — one
	// entry at cjoind -shards 1. Plane figures are zero per shard and
	// filled on Pipeline.
	Shards []PipelineStats `json:"shards,omitempty"`
	// Queries counts tracked queries by state.
	Queries map[string]int `json:"queries"`
}

// TraceStage is one lifecycle mark within TraceResponse.
type TraceStage struct {
	// Stage names the lifecycle point: enqueued, admitted, first_page,
	// cycle_complete, delivered.
	Stage string `json:"stage"`
	// OffsetMicros is the mark's offset from the trace start (submit
	// time).
	OffsetMicros int64 `json:"offset_us"`
	// SincePrevMicros is the duration since the previous mark — the time
	// the query spent in that stage of the pipeline.
	SincePrevMicros int64 `json:"since_prev_us"`
}

// TraceResponse is the body of GET /query/{id}/trace: the query's
// lifecycle timeline from submission to delivery.
type TraceResponse struct {
	ID string `json:"id"`
	// StartedAtUnixMillis is the trace's epoch (wall clock at submit).
	StartedAtUnixMillis int64 `json:"started_at_unix_ms"`
	// Stages is the timeline in mark order. A query still in flight shows
	// the marks reached so far.
	Stages []TraceStage `json:"stages"`
	// Complete reports that the delivered mark is present — the timeline
	// covers the query's whole life.
	Complete bool `json:"complete"`
}

// ErrorResponse is the JSON error envelope for non-2xx statuses.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the body of GET /healthz.
//
//	state "ok"       — 200, every shard serving
//	state "degraded" — 200, shards quarantined, survivors serving
//	state "draining" — 200, graceful shutdown in progress
//	state "failed"   — 503, no serving capacity left
type HealthResponse struct {
	State string `json:"state"`
	// Shards is the executor's per-shard breakdown (one entry at -shards 1).
	Shards []ShardHealth `json:"shards,omitempty"`
}

// ShardHealth is one shard's serving state within HealthResponse.
type ShardHealth struct {
	Shard int    `json:"shard"`
	State string `json:"state"` // healthy|failed
	Cause string `json:"cause,omitempty"`
}
