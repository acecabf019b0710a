package shard_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"cjoin/internal/core"
	"cjoin/internal/dimplane"
	"cjoin/internal/disk"
	"cjoin/internal/fault"
	"cjoin/internal/obs"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// scrape flattens the registry's Prometheus exposition into
// name{labels} → value.
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// scanCounters keys each core.Stats counter by its series up to the
// shard label, which completes it.
func scanCounters(s core.Stats) map[string]int64 {
	return map[string]int64{
		"cjoin_scan_tuples_total{":                         s.TuplesScanned,
		"cjoin_scan_tuples_emitted_total{":                 s.TuplesEmitted,
		"cjoin_scan_pages_total{":                          s.PagesRead,
		"cjoin_scan_cycles_total{":                         s.ScanCycles,
		"cjoin_scan_retries_total{":                        s.ScanRetries,
		`cjoin_scan_pruned_pages_total{cause="partition",`: s.PagesPrunedPartition,
		`cjoin_scan_pruned_pages_total{cause="zonemap",`:   s.PagesPrunedZonemap,
		"cjoin_scan_zonemap_skipped_pages_total{":          s.PagesSkippedZonemap,
	}
}

// planeCounters names each dimplane.Stats counter with its series. The
// admission time is wall time, so it is checked against its series but
// not across groups.
func planeCounters(s dimplane.Stats) map[string]int64 {
	return map[string]int64{
		"cjoin_dimplane_admits_total":           s.Admits,
		"cjoin_dimplane_cache_hits_total":       s.CacheHits,
		"cjoin_dimplane_cache_misses_total":     s.CacheMisses,
		"cjoin_dimplane_snapshot_publish_total": s.SnapshotPublishes,
		"cjoin_dimplane_admit_batch_size_count": s.BatchAdmits,
		"cjoin_dimplane_admit_batch_size_sum":   s.BatchQueries,
	}
}

// TestStatsAreRegistrySeries pins the one-definition rule: Stats reads
// the telemetry handles, so a group built without a registry (a
// private one) counts exactly what a group built over a shared registry
// counts, and every Stats counter equals its /metrics series. The
// queries run one at a time over a partitioned star with a seeded
// transient scan fault, so every counter is deterministic and non-zero:
// the narrow date window prunes partitions, zone-map pages and skips
// pages, its repeat hits the predicate cache, and the fault forces
// retries.
func TestStatsAreRegistrySeries(t *testing.T) {
	ds := genPartitionedDataset(t, 4000, 4, disk.Config{})
	spec := &fault.Spec{Seed: 5, Shard: -1, ScanErrProb: 0.05, ScanFailAt: -1}
	sqls := []string{
		"SELECT SUM(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 1993 AND d_monthnuminyear <= 3",
		"SELECT SUM(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 1993 AND d_monthnuminyear <= 3",
		"SELECT COUNT(*) AS n FROM lineorder",
	}
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			reg := obs.NewRegistry()
			withReg := runSequential(t, ds, shard.Config{Shards: n, Fault: spec, Obs: reg}, sqls)
			private := runSequential(t, ds, shard.Config{Shards: n, Fault: spec}, sqls)

			merged, per := withReg.StatsWithShards()
			want, _ := private.StatsWithShards()
			got, gotPrivate := scanCounters(merged), scanCounters(want)
			for name, v := range got {
				if v == 0 {
					t.Errorf("%s: merged count is zero", name)
				}
				if gotPrivate[name] != v {
					t.Errorf("%s: %d with a registry, %d with a private one", name, v, gotPrivate[name])
				}
			}
			m := scrape(t, reg)
			for i, s := range per {
				for name, v := range scanCounters(s) {
					key := fmt.Sprintf(`%sshard="%d"}`, name, i)
					if series, ok := m[key]; !ok || int64(series) != v {
						t.Errorf("shard %d: Stats %d, series %s = %v", i, v, key, series)
					}
				}
			}

			ps, psPrivate := withReg.PlaneStats(), private.PlaneStats()
			pc, pcPrivate := planeCounters(ps), planeCounters(psPrivate)
			for name, v := range pc {
				if v == 0 {
					t.Errorf("%s: plane count is zero", name)
				}
				if pcPrivate[name] != v {
					t.Errorf("%s: %d with a registry, %d with a private one", name, v, pcPrivate[name])
				}
				if int64(m[name]) != v {
					t.Errorf("plane Stats %d, series %s = %v", v, name, m[name])
				}
			}
			if ps.AdmitNanos == 0 || psPrivate.AdmitNanos == 0 {
				t.Errorf("admission time not recorded: %d, %d", ps.AdmitNanos, psPrivate.AdmitNanos)
			}
			if sum := m["cjoin_dimplane_admit_seconds_sum"]; sum != float64(ps.AdmitNanos)*1e-9 {
				t.Errorf("AdmitNanos %d, series cjoin_dimplane_admit_seconds_sum = %v", ps.AdmitNanos, sum)
			}
		})
	}
}

// runSequential runs each query alone to completion, so the scan's
// page reads, and with them every fault roll, repeat exactly.
func runSequential(t *testing.T, ds *ssb.Dataset, cfg shard.Config, sqls []string) *shard.Group {
	t.Helper()
	cfg.Core = core.Config{MaxConcurrent: 8, Workers: 2}
	g, err := shard.New(ds.Star, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Stop)
	for _, sql := range sqls {
		h, err := g.Submit(bind(t, ds, sql))
		if err != nil {
			t.Fatal(err)
		}
		if res := h.Wait(); res.Err != nil {
			t.Fatalf("%s: %v", sql, res.Err)
		}
		<-h.Done()
	}
	return g
}
