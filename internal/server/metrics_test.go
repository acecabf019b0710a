package server_test

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/disk"
	"cjoin/internal/obs"
	"cjoin/internal/server/client"
)

// parseMetrics flattens Prometheus text exposition into
// name{labels} → value, skipping comments.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// sumPrefix sums the series of a (possibly shard-labeled) family.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// TestMetricsAndTraceE2E drives the sharded serving tier end to end and
// checks the telemetry plane against the /stats view of the same run:
// /metrics families cover every stage, the counters agree with /stats
// where both report the same quantity, and a delivered query's trace
// carries the complete enqueued→delivered timeline.
func TestMetricsAndTraceE2E(t *testing.T) {
	const n = 6
	env := startServerSharded(t, 900, 8, 2, 0, disk.Config{}, admission.Config{MaxQueue: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sqls := workloadSQL(t, env.ds, n, 0.1)
	queries := make([]*client.Query, n)
	for i, sqlText := range sqls {
		q, err := env.cl.Submit(ctx, sqlText)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		queries[i] = q
	}
	for i, q := range queries {
		res, err := q.Result(ctx)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if res.Error != "" {
			t.Fatalf("query %d failed: %s", i, res.Error)
		}
	}

	// --- traces: complete timeline, ordered stages, monotone offsets --
	wantStages := []string{
		obs.StageEnqueued, obs.StageAdmitted, obs.StageFirstPage,
		obs.StageCycleComplete, obs.StageDelivered,
	}
	for i, q := range queries {
		tr, err := q.Trace(ctx)
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if !tr.Complete {
			t.Errorf("query %d: trace not complete: %+v", i, tr)
		}
		if tr.StartedAtUnixMillis <= 0 {
			t.Errorf("query %d: missing trace epoch", i)
		}
		if len(tr.Stages) != len(wantStages) {
			t.Fatalf("query %d: %d stages %v, want %v", i, len(tr.Stages), tr.Stages, wantStages)
		}
		prev := int64(-1)
		for j, st := range tr.Stages {
			if st.Stage != wantStages[j] {
				t.Errorf("query %d stage %d = %q, want %q", i, j, st.Stage, wantStages[j])
			}
			if st.OffsetMicros < prev {
				t.Errorf("query %d stage %q offset %dµs regresses", i, st.Stage, st.OffsetMicros)
			}
			if st.SincePrevMicros < 0 {
				t.Errorf("query %d stage %q negative duration", i, st.Stage)
			}
			prev = st.OffsetMicros
		}
	}

	// Unknown ids are 404, not empty traces.
	resp, err := http.Get(env.ts.URL + "/query/q-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace = HTTP %d, want 404", resp.StatusCode)
	}

	// A result is delivered before Algorithm 2 has retired the query's
	// slots; let the last cleanups land before comparing end states.
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		text, err := env.cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if parseMetrics(t, text)["cjoin_dimplane_slots_in_use"] == 0 || time.Since(start) > 5*time.Second {
			break
		}
	}

	// --- /metrics vs /stats: same run, same numbers ------------------
	st, err := env.cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	text, err := env.cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, text)

	if st.Pipeline.CollectedAtUnixMillis <= 0 {
		t.Error("stats snapshot missing collected_at_unix_ms")
	}
	if got := m["cjoin_admission_submitted_total"]; got != float64(st.Admission.Submitted) {
		t.Errorf("submitted: metrics %v vs stats %d", got, st.Admission.Submitted)
	}
	if got := m["cjoin_admission_completed_total"]; got != float64(st.Admission.Completed) || got != n {
		t.Errorf("completed: metrics %v vs stats %d (want %d)", got, st.Admission.Completed, n)
	}
	if got := m["cjoin_admission_queue_wait_seconds_count"]; got != float64(st.Admission.Admitted) {
		t.Errorf("queue-wait observations %v != admitted %d", got, st.Admission.Admitted)
	}
	if got := m["cjoin_dimplane_admits_total"]; got != float64(st.Pipeline.DimAdmits) {
		t.Errorf("plane admits: metrics %v vs stats %d", got, st.Pipeline.DimAdmits)
	}

	// Every stage family is present, shard-labeled where per-shard.
	for _, key := range []string{
		`cjoin_shard_up{shard="0"}`,
		`cjoin_shard_up{shard="1"}`,
		`cjoin_scan_pages_total{shard="0"}`,
		`cjoin_scan_pages_total{shard="1"}`,
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %s", key)
		}
	}
	if m[`cjoin_shard_up{shard="0"}`] != 1 || m[`cjoin_shard_up{shard="1"}`] != 1 {
		t.Error("healthy shards must report cjoin_shard_up 1")
	}
	if sumPrefix(m, "cjoin_scan_tuples_total") == 0 {
		t.Error("no tuples scanned according to metrics")
	}
	if sumPrefix(m, "cjoin_filter_batch_seconds_count") == 0 {
		t.Error("no filter batches observed")
	}
	if m["cjoin_dimplane_admit_seconds_count"] != float64(st.Pipeline.DimAdmits) {
		t.Errorf("admit histogram count %v != plane admits %d",
			m["cjoin_dimplane_admit_seconds_count"], st.Pipeline.DimAdmits)
	}
	if m["cjoin_dimplane_slots_in_use"] != 0 {
		t.Errorf("slots in use after all queries done = %v, want 0", m["cjoin_dimplane_slots_in_use"])
	}
	if got := m["cjoin_dimplane_retires_total"]; got != n {
		t.Errorf("retires %v, want %d", got, n)
	}
}
