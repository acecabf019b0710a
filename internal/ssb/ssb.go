// Package ssb implements the Star Schema Benchmark substrate used by the
// paper's evaluation (§6.1.2): a deterministic data generator for the
// lineorder star schema and the workload templates derived from SSB
// queries Q2.1–Q4.3 with an abstract-range selectivity knob.
//
// Scaling substitution (documented in DESIGN.md): the paper runs SSB at up
// to sf = 100 (100 GB). We keep the schema, key structure and predicate
// columns, but map one sf unit to Config.FactRowsPerSF fact rows so the
// whole sweep runs on one machine. Dimension cardinalities follow the
// paper's observation that the date dimension is fixed while customer,
// supplier and part grow (at most logarithmically) with sf.
//
// String dictionaries are pre-loaded with each column's full domain in
// sorted order, so dictionary ids preserve lexicographic order and range
// predicates on string columns remain meaningful.
package ssb

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cjoin/internal/catalog"
	"cjoin/internal/disk"
	"cjoin/internal/storage"
	"cjoin/internal/txn"
)

// Config controls dataset generation.
type Config struct {
	// SF is the scale factor (>= 1).
	SF int
	// FactRowsPerSF maps one scale-factor unit to fact rows.
	// Defaults to 10000.
	FactRowsPerSF int
	// Seed makes generation deterministic. Defaults to 1.
	Seed int64
	// Disk is the device cost model; the zero value disables latency.
	Disk disk.Config
	// Partitions range-partitions lineorder by lo_orderdate into this
	// many heaps (§5 "Fact Table Partitioning"). 0 or 1 disables.
	Partitions int
}

func (c *Config) defaults() {
	if c.SF < 1 {
		c.SF = 1
	}
	if c.FactRowsPerSF <= 0 {
		c.FactRowsPerSF = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Dataset is a generated SSB warehouse. The fact table lives on the
// modeled device Dev; dimension tables live on DimDev, an unthrottled
// in-memory device, reflecting the paper's observation that "the small
// size of the dimension tables implies that they can be cached
// efficiently in main memory" (§6.1.1).
type Dataset struct {
	Config Config
	Dev    *disk.Device
	DimDev *disk.Device
	Star   *catalog.Star
	Txn    *txn.Manager

	Lineorder *catalog.Table
	Customer  *catalog.Table
	Supplier  *catalog.Table
	Part      *catalog.Table
	Date      *catalog.Table

	// DateKeys is the sorted list of d_datekey values.
	DateKeys []int64
	// Cardinalities of the dimension tables, for selectivity math.
	NumCustomers, NumSuppliers, NumParts int64
}

// Column indices of the lineorder fact table (including the two hidden
// MVCC columns). Exported for the engines and tests.
const (
	LoXmin = iota
	LoXmax
	LoOrderkey
	LoLinenumber
	LoCustkey
	LoPartkey
	LoSuppkey
	LoOrderdate
	LoOrderpriority
	LoShippriority
	LoQuantity
	LoExtendedprice
	LoOrdtotalprice
	LoDiscount
	LoRevenue
	LoSupplycost
	LoTax
	LoCommitdate
	LoShipmode
	loCols
)

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nations, 5 per region, kept sorted within the whole domain at dict load.
var nationsByRegion = map[string][]string{
	"AFRICA":      {"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"},
	"AMERICA":     {"ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"},
	"ASIA":        {"CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"},
	"EUROPE":      {"FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"},
	"MIDDLE EAST": {"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"},
}

var months = []string{"January", "February", "March", "April", "May", "June",
	"July", "August", "September", "October", "November", "December"}

var weekdays = []string{"Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday"}

var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

var shipmodes = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}

var mktsegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}

var seasons = []string{"Christmas", "Easter", "Fall", "Summer", "Winter"}

var colors = []string{"almond", "blue", "crimson", "green", "ivory", "khaki", "navy", "puff", "red", "yellow"}

var containers = []string{"JUMBO BOX", "LG CASE", "MED BAG", "SM PKG", "WRAP DRUM"}

// logScale returns 1 + floor(log2(sf)), the paper's logarithmic dimension
// growth (§6.2.4).
func logScale(sf int) int64 {
	n := int64(1)
	for sf > 1 {
		sf >>= 1
		n++
	}
	return n
}

// Generate builds a deterministic SSB dataset.
func Generate(cfg Config) (*Dataset, error) {
	cfg.defaults()
	ds := &Dataset{
		Config: cfg,
		Dev:    disk.New(cfg.Disk),
		DimDev: disk.NewMem(),
		Txn:    &txn.Manager{},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	ds.NumCustomers = 300 * logScale(cfg.SF)
	ds.NumSuppliers = 100 * logScale(cfg.SF)
	ds.NumParts = 400 * logScale(cfg.SF)

	ds.buildTables()
	ds.genDate()
	ds.genCustomer(rng)
	ds.genSupplier(rng)
	ds.genPart(rng)
	if err := ds.genLineorder(rng); err != nil {
		return nil, err
	}
	return ds, nil
}

func (ds *Dataset) buildTables() {
	intc := func(n string) catalog.Column { return catalog.Column{Name: n, Type: catalog.Int} }
	strc := func(n string) catalog.Column { return catalog.Column{Name: n, Type: catalog.Str} }

	ds.Date = catalog.NewTable(ds.DimDev, "date", 0, []catalog.Column{
		intc("d_datekey"), strc("d_date"), strc("d_dayofweek"), strc("d_month"),
		intc("d_year"), intc("d_yearmonthnum"), strc("d_yearmonth"),
		intc("d_daynuminweek"), intc("d_daynuminmonth"), intc("d_daynuminyear"),
		intc("d_monthnuminyear"), intc("d_weeknuminyear"), strc("d_sellingseason"),
		intc("d_lastdayinweekfl"), intc("d_holidayfl"), intc("d_weekdayfl"),
	})
	ds.Customer = catalog.NewTable(ds.DimDev, "customer", 0, []catalog.Column{
		intc("c_custkey"), strc("c_name"), strc("c_address"), strc("c_city"),
		strc("c_nation"), strc("c_region"), strc("c_phone"), strc("c_mktsegment"),
	})
	ds.Supplier = catalog.NewTable(ds.DimDev, "supplier", 0, []catalog.Column{
		intc("s_suppkey"), strc("s_name"), strc("s_address"), strc("s_city"),
		strc("s_nation"), strc("s_region"), strc("s_phone"),
	})
	ds.Part = catalog.NewTable(ds.DimDev, "part", 0, []catalog.Column{
		intc("p_partkey"), strc("p_name"), strc("p_mfgr"), strc("p_category"),
		strc("p_brand1"), strc("p_color"), strc("p_type"), intc("p_size"), strc("p_container"),
	})
	ds.Lineorder = catalog.NewTable(ds.Dev, "lineorder", 2, []catalog.Column{
		intc("xmin"), intc("xmax"),
		intc("lo_orderkey"), intc("lo_linenumber"), intc("lo_custkey"),
		intc("lo_partkey"), intc("lo_suppkey"), intc("lo_orderdate"),
		strc("lo_orderpriority"), intc("lo_shippriority"), intc("lo_quantity"),
		intc("lo_extendedprice"), intc("lo_ordtotalprice"), intc("lo_discount"),
		intc("lo_revenue"), intc("lo_supplycost"), intc("lo_tax"),
		intc("lo_commitdate"), strc("lo_shipmode"),
	})

	preloadSorted := ds.preloadSorted
	preloadSorted(ds.Customer, "c_region", regions)
	preloadSorted(ds.Customer, "c_nation", allNations())
	preloadSorted(ds.Customer, "c_city", allCities())
	preloadSorted(ds.Customer, "c_mktsegment", mktsegments)
	preloadSorted(ds.Supplier, "s_region", regions)
	preloadSorted(ds.Supplier, "s_nation", allNations())
	preloadSorted(ds.Supplier, "s_city", allCities())
	preloadSorted(ds.Part, "p_mfgr", mfgrs())
	preloadSorted(ds.Part, "p_category", categories())
	preloadSorted(ds.Part, "p_brand1", brands())
	preloadSorted(ds.Part, "p_color", colors)
	preloadSorted(ds.Part, "p_container", containers)
	preloadSorted(ds.Lineorder, "lo_orderpriority", priorities)
	preloadSorted(ds.Lineorder, "lo_shipmode", shipmodes)
	preloadSorted(ds.Date, "d_month", months)
	preloadSorted(ds.Date, "d_dayofweek", weekdays)
	preloadSorted(ds.Date, "d_sellingseason", seasons)
}

// preloadSorted loads a column's full domain into its dictionary. Domains
// are passed in sorted order so ids preserve lexicographic comparisons.
func (ds *Dataset) preloadSorted(t *catalog.Table, col string, domain []string) {
	c := t.ColIndex(col)
	for _, s := range domain {
		t.Dicts[c].Encode(s)
	}
}

func allNations() []string {
	var out []string
	for _, r := range regions {
		out = append(out, nationsByRegion[r]...)
	}
	sortStrings(out)
	return out
}

func allCities() []string {
	var out []string
	for _, ns := range nationsByRegion {
		for _, n := range ns {
			for i := 0; i < 10; i++ {
				out = append(out, fmt.Sprintf("%.9s%d", n+"         ", i))
			}
		}
	}
	sortStrings(out)
	return out
}

func mfgrs() []string {
	out := make([]string, 5)
	for i := range out {
		out[i] = fmt.Sprintf("MFGR#%d", i+1)
	}
	return out
}

func categories() []string {
	var out []string
	for m := 1; m <= 5; m++ {
		for c := 1; c <= 5; c++ {
			out = append(out, fmt.Sprintf("MFGR#%d%d", m, c))
		}
	}
	return out
}

func brands() []string {
	var out []string
	for _, cat := range categories() {
		for b := 1; b <= 40; b++ {
			out = append(out, fmt.Sprintf("%s%02d", cat, b))
		}
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

const dateDays = 2557 // seven years, 1992-01-01 .. 1998-12-31 (1992 and 1996 are leap years)

func (ds *Dataset) genDate() {
	enc := func(col string, s string) int64 {
		v, _ := ds.Date.EncodeStr(ds.Date.ColIndex(col), s)
		return v
	}
	day := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < dateDays; i++ {
		key := int64(day.Year()*10000 + int(day.Month())*100 + day.Day())
		ds.DateKeys = append(ds.DateKeys, key)
		season := "Winter"
		switch {
		case day.Month() >= 3 && day.Month() <= 5:
			season = "Easter"
		case day.Month() >= 6 && day.Month() <= 8:
			season = "Summer"
		case day.Month() >= 9 && day.Month() <= 11:
			season = "Fall"
		case day.Month() == 12:
			season = "Christmas"
		}
		dow := int64(day.Weekday())
		ds.Date.Heap.Append([]int64{
			key,
			enc("d_date", day.Format("January 2, 2006")),
			enc("d_dayofweek", weekdays[dow]),
			enc("d_month", months[day.Month()-1]),
			int64(day.Year()),
			int64(day.Year()*100 + int(day.Month())),
			enc("d_yearmonth", day.Format("Jan2006")),
			dow + 1,
			int64(day.Day()),
			int64(day.YearDay()),
			int64(day.Month()),
			int64((day.YearDay()-1)/7 + 1),
			enc("d_sellingseason", season),
			boolInt(day.Weekday() == time.Saturday),
			boolInt(day.Day() == 25 && day.Month() == 12),
			boolInt(day.Weekday() != time.Saturday && day.Weekday() != time.Sunday),
		})
		day = day.AddDate(0, 0, 1)
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (ds *Dataset) genCustomer(rng *rand.Rand) {
	t := ds.Customer
	enc := func(col string, s string) int64 {
		v, _ := t.EncodeStr(t.ColIndex(col), s)
		return v
	}
	for k := int64(1); k <= ds.NumCustomers; k++ {
		region := regions[rng.Intn(len(regions))]
		nation := nationsByRegion[region][rng.Intn(5)]
		city := fmt.Sprintf("%.9s%d", nation+"         ", rng.Intn(10))
		t.Heap.Append([]int64{
			k,
			enc("c_name", fmt.Sprintf("Customer#%09d", k)),
			enc("c_address", fmt.Sprintf("addr-c-%d", k)),
			enc("c_city", city),
			enc("c_nation", nation),
			enc("c_region", region),
			enc("c_phone", fmt.Sprintf("%02d-%07d", rng.Intn(25)+10, rng.Intn(10000000))),
			enc("c_mktsegment", mktsegments[rng.Intn(len(mktsegments))]),
		})
	}
}

func (ds *Dataset) genSupplier(rng *rand.Rand) {
	t := ds.Supplier
	enc := func(col string, s string) int64 {
		v, _ := t.EncodeStr(t.ColIndex(col), s)
		return v
	}
	for k := int64(1); k <= ds.NumSuppliers; k++ {
		region := regions[rng.Intn(len(regions))]
		nation := nationsByRegion[region][rng.Intn(5)]
		city := fmt.Sprintf("%.9s%d", nation+"         ", rng.Intn(10))
		t.Heap.Append([]int64{
			k,
			enc("s_name", fmt.Sprintf("Supplier#%09d", k)),
			enc("s_address", fmt.Sprintf("addr-s-%d", k)),
			enc("s_city", city),
			enc("s_nation", nation),
			enc("s_region", region),
			enc("s_phone", fmt.Sprintf("%02d-%07d", rng.Intn(25)+10, rng.Intn(10000000))),
		})
	}
}

func (ds *Dataset) genPart(rng *rand.Rand) {
	t := ds.Part
	enc := func(col string, s string) int64 {
		v, _ := t.EncodeStr(t.ColIndex(col), s)
		return v
	}
	for k := int64(1); k <= ds.NumParts; k++ {
		m := rng.Intn(5) + 1
		c := rng.Intn(5) + 1
		b := rng.Intn(40) + 1
		cat := fmt.Sprintf("MFGR#%d%d", m, c)
		t.Heap.Append([]int64{
			k,
			enc("p_name", fmt.Sprintf("part %s %d", colors[rng.Intn(len(colors))], k)),
			enc("p_mfgr", fmt.Sprintf("MFGR#%d", m)),
			enc("p_category", cat),
			enc("p_brand1", fmt.Sprintf("%s%02d", cat, b)),
			enc("p_color", colors[rng.Intn(len(colors))]),
			enc("p_type", fmt.Sprintf("STANDARD %s", colors[rng.Intn(len(colors))])),
			int64(rng.Intn(50) + 1),
			enc("p_container", containers[rng.Intn(len(containers))]),
		})
	}
}

func (ds *Dataset) genLineorder(rng *rand.Rand) error {
	t := ds.Lineorder
	encPrio := make([]int64, len(priorities))
	for i, p := range priorities {
		encPrio[i], _ = t.EncodeStr(LoOrderpriority, p)
	}
	encShip := make([]int64, len(shipmodes))
	for i, m := range shipmodes {
		encShip[i], _ = t.EncodeStr(LoShipmode, m)
	}

	nrows := int64(ds.Config.FactRowsPerSF) * int64(ds.Config.SF)
	nparts := ds.Config.Partitions
	if nparts < 1 {
		nparts = 1
	}

	// Range-partition by orderdate: split the 7-year span evenly.
	var parts []catalog.FactPartition
	heapFor := func(datekey int64) *storage.HeapFile { return t.Heap }
	if nparts > 1 {
		bounds := make([]int64, nparts+1)
		for i := 0; i <= nparts; i++ {
			idx := i * len(ds.DateKeys) / nparts
			if idx >= len(ds.DateKeys) {
				idx = len(ds.DateKeys) - 1
			}
			bounds[i] = ds.DateKeys[idx]
		}
		bounds[nparts] = ds.DateKeys[len(ds.DateKeys)-1] + 1
		for i := 0; i < nparts; i++ {
			parts = append(parts, catalog.FactPartition{
				Heap:   storage.CreateHeap(ds.Dev, loCols),
				MinKey: bounds[i],
				MaxKey: bounds[i+1] - 1,
			})
		}
		heapFor = func(datekey int64) *storage.HeapFile {
			for i := range parts {
				if datekey >= parts[i].MinKey && datekey <= parts[i].MaxKey {
					return parts[i].Heap
				}
			}
			return parts[len(parts)-1].Heap
		}
	}

	// Fact rows are appended clustered by order date: warehouses load by
	// date, which is also what makes range partitioning (§5) and the
	// zone maps on the date column effective.
	var order int64 = 1
	rows := make([][]int64, 0, nrows)
	for i := int64(0); i < nrows; i++ {
		if rng.Intn(4) == 0 {
			order++
		}
		datekey := ds.DateKeys[rng.Intn(len(ds.DateKeys))]
		quantity := int64(rng.Intn(50) + 1)
		price := int64(rng.Intn(9900) + 100)
		discount := int64(rng.Intn(11))
		revenue := price * (100 - discount) / 100
		rows = append(rows, []int64{
			0, 0, // xmin, xmax: loaded before snapshot 1
			order,
			i % 7,
			rng.Int63n(ds.NumCustomers) + 1,
			rng.Int63n(ds.NumParts) + 1,
			rng.Int63n(ds.NumSuppliers) + 1,
			datekey,
			encPrio[rng.Intn(len(encPrio))],
			int64(rng.Intn(2)),
			quantity,
			price,
			price * quantity,
			discount,
			revenue,
			price * 6 / 10,
			int64(rng.Intn(9)),
			ds.DateKeys[rng.Intn(len(ds.DateKeys))],
			encShip[rng.Intn(len(encShip))],
		})
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a][LoOrderdate] < rows[b][LoOrderdate] })
	for _, row := range rows {
		heapFor(row[LoOrderdate]).Append(row)
	}

	star, err := catalog.NewStar(
		ds.Lineorder,
		[]*catalog.Table{ds.Customer, ds.Supplier, ds.Part, ds.Date},
		[]int{LoCustkey, LoSuppkey, LoPartkey, LoOrderdate},
		[]int{0, 0, 0, 0},
	)
	if err != nil {
		return err
	}
	if nparts > 1 {
		if err := star.SetPartitions(LoOrderdate, parts); err != nil {
			return err
		}
	}
	ds.Star = star
	return nil
}
