package main

import (
	"fmt"
	"math/rand"
	"strings"

	"cjoin/internal/server"
	"cjoin/internal/ssb"
)

// request is one generated input: a star query or a write commit.
// cjoind sees only the SQL text or the update JSON.
type request struct {
	SQL    string
	Update *server.UpdateRequest
}

// lane is the request stream of one generator: either a reader (closed
// loop with a window of in-flight queries, or open loop at a rate) or an
// open-loop writer. next is called by one goroutine only.
type lane struct {
	writer bool
	window int     // closed loop: queries kept in flight; 0 = open loop
	rate   float64 // open loop: requests per second
	phase  float64 // open loop: offset of the schedule, in request intervals
	next   func() request
}

// workload names one traffic mix. lanes builds its generators — at most
// nproc of them — from the dataset's key domains and the seed.
type workload struct {
	name  string
	why   string
	lanes func(ds *ssb.Dataset, seed int64) []lane
}

var workloads = []workload{
	{
		name: "shared_scan",
		why:  "64 queries in flight from a pool of 16, open date range: every query needs every fact page, so the shared scan and Filter chain do the work",
		lanes: func(ds *ssb.Dataset, seed int64) []lane {
			pool := sharedPool(ds, seed)
			return []lane{poolReader(pool, 32, seed, 0), poolReader(pool, 32, seed, 1)}
		},
	},
	{
		name: "adhoc_pruned",
		why:  "open loop at 150 q/s, every query unique with a 5% date window: zone maps prune the scan, so parse, bind, admission and the predicate-cache miss path do the work",
		lanes: func(ds *ssb.Dataset, seed int64) []lane {
			return []lane{adhocReader(ds, 75, seed, 0), adhocReader(ds, 75, seed, 1)}
		},
	},
	{
		name: "wide_results",
		why:  "8 queries in flight, each returning about 10^4 groups: aggregation, shard gather and merge, ORDER BY, JSON encode and client decode do the work",
		lanes: func(ds *ssb.Dataset, seed int64) []lane {
			return []lane{wideReader(ds, 4, seed, 0), wideReader(ds, 4, seed, 1)}
		},
	},
	{
		name: "htap_mixed",
		why:  "shared_scan's reads at 32 in flight beside 100 commits/s of appends, deletes and dimension rewrites: what the write plane costs readers, and the reverse",
		lanes: func(ds *ssb.Dataset, seed int64) []lane {
			return []lane{poolReader(sharedPool(ds, seed), 32, seed, 0), htapWriter(ds, 100, seed, 1)}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// laneRand seeds one lane's generator so lanes of a run differ and the
// same (seed, lane) always gives the same stream.
func laneRand(seed int64, laneIdx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(laneIdx)*7919 + 1))
}

// selectivity is the share of each dimension's key range a query
// selects; 0 leaves the dimension unrestricted.
type selectivity struct{ customer, supplier, part, date float64 }

func (s selectivity) of(dim string) float64 {
	switch dim {
	case "customer":
		return s.customer
	case "supplier":
		return s.supplier
	case "part":
		return s.part
	case "date":
		return s.date
	}
	panic("bench: unknown dimension " + dim)
}

var joinPred = map[string]string{
	"date":     "lo_orderdate = d_datekey",
	"customer": "lo_custkey = c_custkey",
	"supplier": "lo_suppkey = s_suppkey",
	"part":     "lo_partkey = p_partkey",
}

// starSQL renders an SSB template with a contiguous key range of the
// given selectivity, at a random offset, on each restricted dimension.
// It is ssb.Dataset.Instantiate with a selectivity per dimension.
func starSQL(ds *ssb.Dataset, t ssb.Template, sel selectivity, rng *rand.Rand) string {
	var conds []string
	for _, d := range t.Dims {
		conds = append(conds, joinPred[d])
	}
	for _, d := range t.Dims {
		s := sel.of(d)
		if s <= 0 {
			continue
		}
		switch d {
		case "date":
			k := rangeWidth(len(ds.DateKeys), s)
			lo := rng.Intn(len(ds.DateKeys) - k + 1)
			conds = append(conds, fmt.Sprintf("d_datekey BETWEEN %d AND %d", ds.DateKeys[lo], ds.DateKeys[lo+k-1]))
		case "customer":
			conds = append(conds, keyRange("c_custkey", ds.NumCustomers, s, rng))
		case "supplier":
			conds = append(conds, keyRange("s_suppkey", ds.NumSuppliers, s, rng))
		case "part":
			conds = append(conds, keyRange("p_partkey", ds.NumParts, s, rng))
		}
	}
	group := strings.Join(t.GroupBy, ", ")
	return "SELECT " + t.Aggs + ", " + group +
		" FROM lineorder, " + strings.Join(t.Dims, ", ") +
		" WHERE " + strings.Join(conds, " AND ") +
		" GROUP BY " + group + " ORDER BY " + group
}

func keyRange(col string, n int64, s float64, rng *rand.Rand) string {
	k := int64(rangeWidth(int(n), s))
	lo := rng.Int63n(n-k+1) + 1
	return fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, lo+k-1)
}

func rangeWidth(n int, s float64) int {
	k := int(float64(n)*s + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// sharedPool is shared_scan's 16 queries: the ten templates in turn,
// 1% ranges on customer, supplier and part, the date range open. At most
// 64 distinct predicates, which fits cjoind's 128-entry predicate cache.
func sharedPool(ds *ssb.Dataset, seed int64) []string {
	rng := laneRand(seed, -1)
	ts := ssb.Templates()
	pool := make([]string, 16)
	for i := range pool {
		pool[i] = starSQL(ds, ts[i%len(ts)], selectivity{customer: 0.01, supplier: 0.01, part: 0.01}, rng)
	}
	return pool
}

func poolReader(pool []string, window int, seed int64, laneIdx int) lane {
	rng := laneRand(seed, laneIdx)
	return lane{window: window, next: func() request {
		return request{SQL: pool[rng.Intn(len(pool))]}
	}}
}

// adhocReader issues a fresh query every time: 10% ranges on every
// dimension and a date window of 5% of the key span. The two lanes'
// schedules interleave, so queries arrive evenly spaced; were they to
// coincide, whether a pair shares an admission batch would hang on
// microseconds and differ from run to run.
func adhocReader(ds *ssb.Dataset, rate float64, seed int64, laneIdx int) lane {
	rng := laneRand(seed, laneIdx)
	ts := ssb.Templates()
	sel := selectivity{customer: 0.1, supplier: 0.1, part: 0.1, date: 0.05}
	return lane{rate: rate, phase: float64(laneIdx) / 2, next: func() request {
		return request{SQL: starSQL(ds, ts[rng.Intn(len(ts))], sel, rng)}
	}}
}

// wideReader alternates the two highest-cardinality groupings, with
// ranges sized so that a query returns about 10^4 groups at 200000
// fact rows.
func wideReader(ds *ssb.Dataset, window int, seed int64, laneIdx int) lane {
	rng := laneRand(seed, laneIdx)
	q32, _ := ssb.TemplateByID("Q3.2") // c_city, s_city, d_year
	q43, _ := ssb.TemplateByID("Q4.3") // d_year, s_city, p_brand1
	return lane{window: window, next: func() request {
		if rng.Intn(2) == 0 {
			return request{SQL: starSQL(ds, q32, selectivity{customer: 0.3, supplier: 0.3}, rng)}
		}
		return request{SQL: starSQL(ds, q43, selectivity{supplier: 0.3, part: 0.3}, rng)}
	}}
}

// Fact-row domains for generated appends, as in ssb's generator.
var (
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	nations    = []string{"ALGERIA", "BRAZIL", "CHINA", "FRANCE", "IRAN", "JAPAN", "KENYA", "PERU"}
)

// htapWriter commits at a fixed rate: 80% appends of eight fact rows,
// 10% deletes of a distinct loaded fact row, 10% rewrites of one
// dimension cell (which invalidate cjoind's predicate-scan cache).
// Nation rewrites change what the pool's nation groupings return, so the
// post-quiesce check sees them.
func htapWriter(ds *ssb.Dataset, rate float64, seed int64, laneIdx int) lane {
	rng := laneRand(seed, laneIdx)
	loaded := ds.Lineorder.Heap.NumRows()
	deleted := make(map[int64]bool)
	return lane{writer: true, rate: rate, next: func() request {
		switch p := rng.Intn(10); {
		case p < 8:
			rows := make([][]any, 8)
			for i := range rows {
				rows[i] = factRow(ds, rng)
			}
			return request{Update: &server.UpdateRequest{Op: "append", Rows: rows}}
		case p == 8:
			idx := rng.Int63n(loaded)
			for deleted[idx] {
				idx = rng.Int63n(loaded)
			}
			deleted[idx] = true
			return request{Update: &server.UpdateRequest{Op: "delete", Row: &idx}}
		default:
			u := &server.UpdateRequest{Op: "dim-update"}
			var row int64
			switch rng.Intn(3) {
			case 0:
				u.Table, u.Column, u.Value = "customer", "c_nation", nations[rng.Intn(len(nations))]
				row = rng.Int63n(ds.NumCustomers)
			case 1:
				u.Table, u.Column, u.Value = "supplier", "s_nation", nations[rng.Intn(len(nations))]
				row = rng.Int63n(ds.NumSuppliers)
			default:
				u.Table, u.Column, u.Value = "part", "p_size", rng.Intn(50)+1
				row = rng.Int63n(ds.NumParts)
			}
			u.Row = &row
			return request{Update: u}
		}
	}}
}

// factRow is one visible-column lineorder row in the wire form POST
// /update takes: integers, and strings for the two dictionary columns.
func factRow(ds *ssb.Dataset, rng *rand.Rand) []any {
	quantity := rng.Intn(50) + 1
	price := rng.Intn(9900) + 100
	discount := rng.Intn(11)
	return []any{
		rng.Int63n(1 << 30),                     // lo_orderkey
		rng.Intn(7),                             // lo_linenumber
		rng.Int63n(ds.NumCustomers) + 1,         // lo_custkey
		rng.Int63n(ds.NumParts) + 1,             // lo_partkey
		rng.Int63n(ds.NumSuppliers) + 1,         // lo_suppkey
		ds.DateKeys[rng.Intn(len(ds.DateKeys))], // lo_orderdate
		priorities[rng.Intn(len(priorities))],   // lo_orderpriority
		rng.Intn(2),                             // lo_shippriority
		quantity,                                // lo_quantity
		price,                                   // lo_extendedprice
		price * quantity,                        // lo_ordtotalprice
		discount,                                // lo_discount
		price * (100 - discount) / 100,          // lo_revenue
		price * 6 / 10,                          // lo_supplycost
		rng.Intn(9),                             // lo_tax
		ds.DateKeys[rng.Intn(len(ds.DateKeys))], // lo_commitdate
		shipmodes[rng.Intn(len(shipmodes))],     // lo_shipmode
	}
}
