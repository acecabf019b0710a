// Package catalog holds schema metadata: tables, columns, string
// dictionaries, and the star-schema wiring (fact → dimension foreign
// keys) that CJOIN and the conventional engine both consume.
//
// Every stored value is an int64. String columns are dictionary-encoded:
// the catalog owns a per-column dictionary mapping strings to dense ids,
// and predicates on string columns are translated to id comparisons at
// bind time. Dictionary encoding is standard warehouse practice.
package catalog

import (
	"errors"
	"fmt"
	"sync"

	"cjoin/internal/disk"
	"cjoin/internal/storage"
)

// Type is a column's logical type.
type Type int

const (
	// Int columns store int64 values directly.
	Int Type = iota
	// Str columns store dictionary ids; the Column's Dict decodes them.
	Str
)

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Dict is an order-insensitive string dictionary. Ids are assigned densely
// in first-seen order. It is safe for concurrent use.
type Dict struct {
	mu   sync.RWMutex
	vals []string
	ids  map[string]int64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: make(map[string]int64)} }

// Encode returns the id for s, assigning a new one if necessary.
func (d *Dict) Encode(s string) int64 {
	d.mu.RLock()
	id, ok := d.ids[s]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[s]; ok {
		return id
	}
	id = int64(len(d.vals))
	d.vals = append(d.vals, s)
	d.ids[s] = id
	return id
}

// Lookup returns the id for s without assigning one.
func (d *Dict) Lookup(s string) (int64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[s]
	return id, ok
}

// Decode returns the string for id.
func (d *Dict) Decode(id int64) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= int64(len(d.vals)) {
		return "", false
	}
	return d.vals[id], true
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.vals)
}

// Table is a stored relation: schema plus heap file. The first Hidden
// columns are system columns (e.g. xmin/xmax on fact tables) that SQL
// queries cannot reference by position, only by their reserved names.
type Table struct {
	Name    string
	Columns []Column
	Hidden  int
	Dicts   []*Dict // parallel to Columns; nil for Int columns
	Heap    *storage.HeapFile

	byName map[string]int
}

// NewTable creates a table with a fresh heap on dev. Hidden counts
// leading system columns.
func NewTable(dev *disk.Device, name string, hidden int, cols []Column) *Table {
	t := &Table{
		Name:    name,
		Columns: cols,
		Hidden:  hidden,
		Dicts:   make([]*Dict, len(cols)),
		Heap:    storage.CreateHeap(dev, len(cols)),
		byName:  make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		if c.Type == Str {
			t.Dicts[i] = NewDict()
		}
		if _, dup := t.byName[c.Name]; dup {
			panic(fmt.Sprintf("catalog: duplicate column %q in table %q", c.Name, name))
		}
		t.byName[c.Name] = i
	}
	return t
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// VisibleColumns returns the user-visible column list.
func (t *Table) VisibleColumns() []Column { return t.Columns[t.Hidden:] }

// EncodeStr encodes a string literal for column col, returning an error
// for non-string columns.
func (t *Table) EncodeStr(col int, s string) (int64, error) {
	if col < 0 || col >= len(t.Columns) || t.Dicts[col] == nil {
		return 0, fmt.Errorf("catalog: column %d of %s is not a string column", col, t.Name)
	}
	return t.Dicts[col].Encode(s), nil
}

// FactPartition is one range partition of the fact table: rows whose
// partition-key column lies in [MinKey, MaxKey].
type FactPartition struct {
	Heap   *storage.HeapFile
	MinKey int64
	MaxKey int64
}

// Star wires a fact table to its dimensions: Fact.FKCol[i] equi-joins to
// Dims[i].KeyCol[i]. This is the star-schema metadata of §2.1.
type Star struct {
	Fact   *Table
	Dims   []*Table
	FKCol  []int // fact column index holding the foreign key to Dims[i]
	KeyCol []int // key column index within Dims[i]

	// PartCol is the fact column used for range partitioning (§5 "Fact
	// Table Partitioning"), or -1 when the fact table is a single heap.
	PartCol   int
	factParts []FactPartition

	dimByName map[string]int
}

// NewStar validates and builds a star schema.
func NewStar(fact *Table, dims []*Table, fkCol, keyCol []int) (*Star, error) {
	if len(dims) != len(fkCol) || len(dims) != len(keyCol) {
		return nil, fmt.Errorf("catalog: star arity mismatch: %d dims, %d fks, %d keys", len(dims), len(fkCol), len(keyCol))
	}
	s := &Star{Fact: fact, Dims: dims, FKCol: fkCol, KeyCol: keyCol, PartCol: -1, dimByName: make(map[string]int)}
	for i, d := range dims {
		if fkCol[i] < 0 || fkCol[i] >= len(fact.Columns) {
			return nil, fmt.Errorf("catalog: fk column %d out of range for fact %s", fkCol[i], fact.Name)
		}
		if keyCol[i] < 0 || keyCol[i] >= len(d.Columns) {
			return nil, fmt.Errorf("catalog: key column %d out of range for dim %s", keyCol[i], d.Name)
		}
		if _, dup := s.dimByName[d.Name]; dup {
			return nil, fmt.Errorf("catalog: duplicate dimension %q", d.Name)
		}
		s.dimByName[d.Name] = i
	}
	return s, nil
}

// SetPartitions declares the fact table range-partitioned on column col.
// Partitioned stars are static: appends through Fact.Heap are not
// supported, matching the load-then-query regime of §5.
func (s *Star) SetPartitions(col int, parts []FactPartition) error {
	if col < 0 || col >= len(s.Fact.Columns) {
		return fmt.Errorf("catalog: partition column %d out of range", col)
	}
	if len(parts) == 0 {
		return fmt.Errorf("catalog: SetPartitions needs at least one partition")
	}
	s.PartCol = col
	s.factParts = parts
	return nil
}

// Partitions returns the fact partitions; an unpartitioned star yields a
// single partition covering the whole key space.
func (s *Star) Partitions() []FactPartition {
	if s.factParts != nil {
		return s.factParts
	}
	const maxI64 = int64(^uint64(0) >> 1)
	return []FactPartition{{Heap: s.Fact.Heap, MinKey: -maxI64 - 1, MaxKey: maxI64}}
}

// PartitionPages returns the heap page count of every fact partition,
// index-aligned with Partitions. Partition-dealing planners
// (internal/shard) balance shards by these weights — page count, not
// partition count — so date-skewed loads still spread evenly.
func (s *Star) PartitionPages() []int {
	parts := s.Partitions()
	pages := make([]int, len(parts))
	for i, p := range parts {
		pages[i] = p.Heap.NumPages()
	}
	return pages
}

// ErrStaticStar is wrapped by every refusal of a fact write the star
// cannot take by construction.
var ErrStaticStar = errors.New("static star")

// WritableFact returns the fact table if this star takes snapshot-
// isolated fact writes (txn.Manager Append/Delete), else an error
// wrapping ErrStaticStar: a range-partitioned star is load-then-query
// (§5), and a fact table without xmin/xmax cannot version its rows.
func (s *Star) WritableFact() (*Table, error) {
	if s.PartCol >= 0 {
		return nil, fmt.Errorf("%w: partitioned stars are static (load-then-query, §5); fact writes need an unpartitioned deployment", ErrStaticStar)
	}
	if s.Fact.Hidden < 2 {
		return nil, fmt.Errorf("%w: fact table %s carries no xmin/xmax system columns; snapshot-isolated writes are unavailable", ErrStaticStar, s.Fact.Name)
	}
	return s.Fact, nil
}

// DimIndex returns the position of the named dimension, or -1.
func (s *Star) DimIndex(name string) int {
	if i, ok := s.dimByName[name]; ok {
		return i
	}
	return -1
}

// TableByName resolves a table name to (slot, table) where slot 0 is the
// fact table and slot i+1 is dimension i. Returns slot -1 if unknown.
func (s *Star) TableByName(name string) (int, *Table) {
	if name == s.Fact.Name {
		return 0, s.Fact
	}
	if i := s.DimIndex(name); i >= 0 {
		return i + 1, s.Dims[i]
	}
	return -1, nil
}
