// Package cjoin is a Go implementation of CJOIN, the shared join operator
// for highly concurrent data warehouses introduced by Candea, Polyzotis
// and Vingralek ("A Scalable, Predictable Join Operator for Highly
// Concurrent Data Warehouses", VLDB 2009).
//
// The package offers a small warehouse engine built around one idea: all
// concurrent star queries execute inside a single, always-on physical
// plan that shares the fact-table scan, the join computation, and the
// dimension tuple storage across every in-flight query. A new query
// latches onto the running plan at any moment and completes after one
// full cycle of the continuous scan, which makes response times nearly
// independent of the number of concurrent queries.
//
// Basic use:
//
//	w := cjoin.NewWarehouse(cjoin.DiskModel{})
//	// create dimension and fact tables, load rows, define the star...
//	p, _ := w.OpenPipeline(cjoin.PipelineOptions{})
//	defer p.Close()
//	q, _ := p.Query("SELECT SUM(amount), region FROM sales, stores WHERE store_id = s_id GROUP BY region")
//	res, _ := q.Wait()
//	fmt.Print(res.Format())
//
// A conventional query-at-a-time engine (Baseline) is included for
// comparison, as is a generator for the Star Schema Benchmark (OpenSSB)
// used by the paper's evaluation.
package cjoin

import (
	"fmt"
	"time"

	"cjoin/internal/catalog"
	"cjoin/internal/core"
	"cjoin/internal/disk"
	"cjoin/internal/shard"
	"cjoin/internal/txn"
)

// ColType is the logical type of a column.
type ColType int

const (
	// Int columns hold 64-bit integers.
	Int ColType = iota
	// String columns hold dictionary-encoded strings.
	String
)

// Column declares one table column.
type Column struct {
	Name string
	Type ColType
}

// DiskModel configures the simulated storage device shared by all tables
// of a warehouse. The zero value disables simulated latency (pure
// in-memory speed); production-shaped experiments use a sequential
// bandwidth plus a seek penalty.
type DiskModel struct {
	SeqBytesPerSec float64
	SeekPenalty    time.Duration
}

// Join declares one fact-to-dimension foreign key of a star schema.
type Join struct {
	Dimension  string // dimension table name
	ForeignKey string // fact column holding the key
	Key        string // dimension key column
}

// Warehouse is a collection of tables on one device plus the star-schema
// metadata and the snapshot-isolation manager.
type Warehouse struct {
	dev    *disk.Device
	txn    *txn.Manager
	tables map[string]*Table
	star   *catalog.Star
	fact   *Table
}

// Table wraps one stored relation.
type Table struct {
	w      *Warehouse
	tab    *catalog.Table
	isFact bool
}

// NewWarehouse creates an empty warehouse on a fresh device.
func NewWarehouse(model DiskModel) *Warehouse {
	return &Warehouse{
		dev:    disk.New(disk.Config{SeqBytesPerSec: model.SeqBytesPerSec, SeekPenalty: model.SeekPenalty}),
		txn:    &txn.Manager{},
		tables: make(map[string]*Table),
	}
}

// CreateDimension creates a dimension table.
func (w *Warehouse) CreateDimension(name string, cols []Column) (*Table, error) {
	return w.createTable(name, cols, false)
}

// CreateFact creates a fact table. Two hidden system columns (xmin,
// xmax) are prepended for snapshot isolation; SQL queries do not see
// them.
func (w *Warehouse) CreateFact(name string, cols []Column) (*Table, error) {
	return w.createTable(name, cols, true)
}

func (w *Warehouse) createTable(name string, cols []Column, fact bool) (*Table, error) {
	if _, dup := w.tables[name]; dup {
		return nil, fmt.Errorf("cjoin: table %q already exists", name)
	}
	var ccols []catalog.Column
	hidden := 0
	if fact {
		ccols = append(ccols, catalog.Column{Name: "xmin"}, catalog.Column{Name: "xmax"})
		hidden = 2
	}
	for _, c := range cols {
		ct := catalog.Int
		if c.Type == String {
			ct = catalog.Str
		}
		ccols = append(ccols, catalog.Column{Name: c.Name, Type: ct})
	}
	t := &Table{w: w, tab: catalog.NewTable(w.dev, name, hidden, ccols), isFact: fact}
	w.tables[name] = t
	if fact {
		if w.fact != nil {
			return nil, fmt.Errorf("cjoin: warehouse already has fact table %q", w.fact.tab.Name)
		}
		w.fact = t
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.tab.Name }

// NumRows returns the current row count.
func (t *Table) NumRows() int64 { return t.tab.Heap.NumRows() }

// Append loads one row. Values must be int/int64 for Int columns and
// string for String columns. Fact rows loaded this way belong to the
// initial snapshot (visible to every query); use CommitFacts for
// transactional appends.
func (t *Table) Append(vals ...any) error {
	row, err := t.encode(vals)
	if err != nil {
		return err
	}
	t.tab.Heap.Append(row)
	return nil
}

// encode turns visible-column values into one stored row; a fact row's
// xmin/xmax stay 0 (the initial snapshot) until a commit stamps them.
func (t *Table) encode(vals []any) ([]int64, error) {
	visible := t.tab.VisibleColumns()
	if len(vals) != len(visible) {
		return nil, fmt.Errorf("cjoin: %s has %d columns, got %d values", t.tab.Name, len(visible), len(vals))
	}
	row := make([]int64, len(t.tab.Columns))
	for i, v := range vals {
		ci := i + t.tab.Hidden
		switch x := v.(type) {
		case int:
			row[ci] = int64(x)
		case int64:
			row[ci] = x
		case string:
			id, err := t.tab.EncodeStr(ci, x)
			if err != nil {
				return nil, fmt.Errorf("cjoin: column %s: %w", visible[i].Name, err)
			}
			row[ci] = id
		default:
			return nil, fmt.Errorf("cjoin: unsupported value type %T for column %s", v, visible[i].Name)
		}
	}
	return row, nil
}

// Snapshot identifies a committed warehouse state.
type Snapshot = txn.Snapshot

// CommitFacts appends fact rows in one snapshot-isolated transaction and
// returns the snapshot at which they become visible. Every row is encoded
// before the commit, so a bad value publishes nothing.
func (w *Warehouse) CommitFacts(rows [][]any) (Snapshot, error) {
	if w.fact == nil {
		return 0, fmt.Errorf("cjoin: no fact table defined")
	}
	encoded := make([][]int64, 0, len(rows))
	for _, vals := range rows {
		row, err := w.fact.encode(vals)
		if err != nil {
			return 0, err
		}
		encoded = append(encoded, row)
	}
	return w.txn.Append(w.fact.tab, encoded)
}

// DeleteFact marks the fact row at index idx deleted; the deletion is
// visible to snapshots taken after it returns. A failed delete
// (out-of-range index, already-deleted row) publishes no commit id.
func (w *Warehouse) DeleteFact(idx int64) (Snapshot, error) {
	if w.fact == nil {
		return 0, fmt.Errorf("cjoin: no fact table defined")
	}
	return w.txn.Delete(w.fact.tab, idx)
}

// DefineStar declares the star schema: the fact table plus its
// fact-to-dimension joins. It must be called once, after table creation
// and before opening pipelines.
func (w *Warehouse) DefineStar(fact string, joins []Join) error {
	ft, ok := w.tables[fact]
	if !ok || !ft.isFact {
		return fmt.Errorf("cjoin: %q is not a fact table", fact)
	}
	var dims []*catalog.Table
	var fks, keys []int
	for _, j := range joins {
		dt, ok := w.tables[j.Dimension]
		if !ok || dt.isFact {
			return fmt.Errorf("cjoin: %q is not a dimension table", j.Dimension)
		}
		fk := ft.tab.ColIndex(j.ForeignKey)
		if fk < 0 {
			return fmt.Errorf("cjoin: fact column %q not found", j.ForeignKey)
		}
		key := dt.tab.ColIndex(j.Key)
		if key < 0 {
			return fmt.Errorf("cjoin: dimension column %q not found", j.Key)
		}
		dims = append(dims, dt.tab)
		fks = append(fks, fk)
		keys = append(keys, key)
	}
	star, err := catalog.NewStar(ft.tab, dims, fks, keys)
	if err != nil {
		return err
	}
	w.star = star
	return nil
}

// Begin returns a snapshot of the current committed state, for pinning
// queries explicitly.
func (w *Warehouse) Begin() Snapshot { return w.txn.Begin() }

// Tables returns the warehouse's tables keyed by name (a copy).
func (w *Warehouse) Tables() map[string]*Table {
	out := make(map[string]*Table, len(w.tables))
	for k, v := range w.tables {
		out[k] = v
	}
	return out
}

// star returns the defined star schema or an error.
func (w *Warehouse) starSchema() (*catalog.Star, error) {
	if w.star == nil {
		return nil, fmt.Errorf("cjoin: no star schema defined; call DefineStar first")
	}
	return w.star, nil
}

// PipelineOptions tunes a CJOIN pipeline. The zero value uses defaults
// (horizontal layout, NumCPU/2 stage threads, 64 concurrent queries).
type PipelineOptions struct {
	// MaxConcurrent bounds simultaneously registered queries.
	MaxConcurrent int
	// Workers is the number of Stage threads.
	Workers int
	// Layout is "horizontal" (default), "vertical" or "hybrid".
	Layout string
	// Stages is the stage count for the hybrid layout.
	Stages int
	// OptimizeEvery is the interval of run-time filter reordering;
	// 0 uses 100ms.
	OptimizeEvery time.Duration
	// Shards fans the operator out over N CJOIN pipelines behind one
	// submission surface: an unpartitioned fact table is page-strided
	// across shards, a range-partitioned one has whole partitions dealt
	// to shards (balanced by page count, pruning intact). Results are
	// merged exactly. 0 or 1 runs the paper's single pipeline.
	Shards int
}

func (o PipelineOptions) toCore() (core.Config, error) {
	cfg := core.Config{
		MaxConcurrent:    o.MaxConcurrent,
		Workers:          o.Workers,
		Stages:           o.Stages,
		OptimizeInterval: o.OptimizeEvery,
	}
	if cfg.OptimizeInterval == 0 {
		cfg.OptimizeInterval = 100 * time.Millisecond
	}
	switch o.Layout {
	case "", "horizontal":
		cfg.Layout = core.Horizontal
	case "vertical":
		cfg.Layout = core.Vertical
	case "hybrid":
		cfg.Layout = core.Hybrid
	default:
		return cfg, fmt.Errorf("cjoin: unknown layout %q", o.Layout)
	}
	return cfg, nil
}

// OpenPipeline starts the warehouse's always-on CJOIN operator: a group
// of opts.Shards pipelines, one unless asked for more.
func (w *Warehouse) OpenPipeline(opts PipelineOptions) (*Pipeline, error) {
	star, err := w.starSchema()
	if err != nil {
		return nil, err
	}
	cfg, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	g, err := shard.New(star, shard.Config{Shards: opts.Shards, Core: cfg})
	if err != nil {
		return nil, err
	}
	g.Start()
	return &Pipeline{w: w, p: g}, nil
}

// Pipeline is a running CJOIN operator accepting concurrent star
// queries.
type Pipeline struct {
	w *Warehouse
	p *shard.Group
}

// Close shuts the pipeline down; in-flight queries fail.
func (p *Pipeline) Close() { p.p.Stop() }

// ActiveQueries returns the number of queries currently registered.
func (p *Pipeline) ActiveQueries() int { return p.p.ActiveQueries() }

// FilterStats reports one Filter's run-time counters: stored dimension
// tuples, probes, and the drop rate that drives on-line reordering.
type FilterStats struct {
	Dimension string
	Stored    int
	TuplesIn  int64
	Probes    int64
	Drops     int64
	DropRate  float64
}

// PipelineStats reports shared-plan activity.
type PipelineStats struct {
	TuplesScanned int64
	PagesRead     int64
	ScanCycles    int64
	FilterOrder   []string
	Filters       []FilterStats
}

// Stats snapshots pipeline counters.
func (p *Pipeline) Stats() PipelineStats {
	s := p.p.Stats()
	out := PipelineStats{
		TuplesScanned: s.TuplesScanned,
		PagesRead:     s.PagesRead,
		ScanCycles:    s.ScanCycles,
		FilterOrder:   s.FilterOrder,
	}
	for _, f := range s.Filters {
		out.Filters = append(out.Filters, FilterStats{
			Dimension: f.Dimension,
			Stored:    f.Stored,
			TuplesIn:  f.TuplesIn,
			Probes:    f.Probes,
			Drops:     f.Drops,
			DropRate:  f.DropRate(),
		})
	}
	return out
}
