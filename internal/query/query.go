// Package query binds parsed star-query SQL (internal/sql) against a star
// schema (internal/catalog), producing the executable form consumed by
// both the CJOIN operator and the conventional engine.
//
// A bound query matches the template of §2.1: per-dimension selection
// predicates c_ij (TRUE when absent), an optional fact-table predicate
// c_i0, fact-to-dimension equi-joins validated against the catalog's
// foreign keys, aggregates, and GROUP BY columns.
package query

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"cjoin/internal/agg"
	"cjoin/internal/catalog"
	"cjoin/internal/expr"
	"cjoin/internal/obs"
	"cjoin/internal/sql"
	"cjoin/internal/txn"
)

// OrderSpec orders final results by output column index.
type OrderSpec struct {
	Col  int // index into the output row: group columns, then aggregates
	Desc bool
}

// SortResults orders results by the given specs (stable over the default
// group-key order produced by the aggregators).
func SortResults(rs []agg.Result, order []OrderSpec) {
	if len(order) == 0 {
		return
	}
	slices.SortStableFunc(rs, func(a, b agg.Result) int {
		for _, o := range order {
			c := cmp.Compare(outputCol(a, o.Col), outputCol(b, o.Col))
			if c != 0 {
				if o.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
}

func outputCol(r agg.Result, col int) int64 {
	if col < len(r.Group) {
		return r.Group[col]
	}
	return r.Ints[col-len(r.Group)]
}

// Bound is a fully bound star query, ready for execution.
type Bound struct {
	Schema *catalog.Star

	// DimRefs[i] reports whether dimension i is referenced (joined).
	DimRefs []bool
	// DimPreds[i] is the selection predicate on dimension i, bound with
	// the dimension row in slot 0; expr.TRUE when the query references
	// the dimension without filtering it.
	DimPreds []expr.Node
	// FactPred is the fact-table predicate c_i0, bound with the fact row
	// in slot 0; expr.TRUE when absent.
	FactPred expr.Node

	// Aggs and GroupBy are bound over the joined row (fact slot 0,
	// dimension i slot i+1).
	Aggs    []agg.Spec
	GroupBy []expr.Node

	// GroupNames and AggNames label the output columns.
	GroupNames []string
	AggNames   []string
	// Output column order: select-list order mapping. outIdx[i] gives,
	// for select item i, the output position (group col or agg).
	OrderBy []OrderSpec

	// Limit caps the number of result rows delivered, applied after
	// ORDER BY; -1 means no limit.
	Limit int

	// Snapshot is the transaction snapshot the query runs under.
	Snapshot txn.Snapshot

	// SQL preserves the original statement text for diagnostics.
	SQL string

	// Trace, when non-nil, is the query's lifecycle timeline. It rides
	// the Bound through admission and into every shard pipeline (the
	// shallow per-shard copy shares it), collecting stage marks; nil
	// disables tracing at zero cost.
	Trace *obs.Trace
}

// HasFactPred reports whether the query places a real predicate on the
// fact table (c_i0 ≢ TRUE).
func (b *Bound) HasFactPred() bool { return !isTrue(b.FactPred) }

// HasDimPred reports whether dimension i carries a real predicate.
func (b *Bound) HasDimPred(i int) bool { return !isTrue(b.DimPreds[i]) }

func isTrue(n expr.Node) bool {
	c, ok := n.(expr.Const)
	return ok && c.V == 1 && c.Str == ""
}

// ParseBind parses src and binds it against schema.
func ParseBind(src string, schema *catalog.Star) (*Bound, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	b, err := Bind(stmt, schema)
	if err != nil {
		return nil, fmt.Errorf("%w (query: %s)", err, src)
	}
	b.SQL = src
	return b, nil
}

type binder struct {
	schema *catalog.Star
	// nameToSlot maps FROM-clause names and aliases to table slots
	// (0 = fact, i+1 = dimension i).
	nameToSlot map[string]int
	fromSlots  []int
}

// Bind binds stmt against schema.
func Bind(stmt *sql.SelectStmt, schema *catalog.Star) (*Bound, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("query: empty FROM clause")
	}
	bd := &binder{schema: schema, nameToSlot: make(map[string]int)}
	factSeen := false
	for _, ref := range stmt.From {
		slot, tab := schema.TableByName(ref.Name)
		if tab == nil {
			return nil, fmt.Errorf("query: unknown table %q", ref.Name)
		}
		if slot == 0 {
			factSeen = true
		}
		for _, name := range []string{ref.Name, ref.Alias} {
			if name == "" {
				continue
			}
			if old, dup := bd.nameToSlot[name]; dup && old != slot {
				return nil, fmt.Errorf("query: ambiguous table name %q", name)
			}
			bd.nameToSlot[name] = slot
		}
		bd.fromSlots = append(bd.fromSlots, slot)
	}
	if !factSeen {
		return nil, fmt.Errorf("query: star query must reference fact table %q", schema.Fact.Name)
	}

	out := &Bound{
		Schema:   schema,
		DimRefs:  make([]bool, len(schema.Dims)),
		DimPreds: make([]expr.Node, len(schema.Dims)),
		FactPred: expr.TRUE,
		Limit:    -1,
	}
	for i := range out.DimPreds {
		out.DimPreds[i] = expr.TRUE
	}

	// Classify WHERE conjuncts into joins and per-table predicates.
	joined := make([]bool, len(schema.Dims))
	perTable := make(map[int][]sql.Expr) // slot -> conjuncts
	if stmt.Where != nil {
		for _, c := range flattenAnd(stmt.Where) {
			if dim, ok, err := bd.asJoin(c); err != nil {
				return nil, err
			} else if ok {
				joined[dim] = true
				continue
			}
			slots, err := bd.referencedSlots(c)
			if err != nil {
				return nil, err
			}
			switch len(slots) {
			case 0:
				// Constant predicate; attach to the fact table.
				perTable[0] = append(perTable[0], c)
			case 1:
				perTable[slots[0]] = append(perTable[slots[0]], c)
			default:
				return nil, fmt.Errorf("query: predicate %s spans multiple tables; not a star query", c)
			}
		}
	}

	// Bind per-table predicates with the table row in slot 0.
	for slot, conjs := range perTable {
		var preds []expr.Node
		tab := bd.tableOf(slot)
		for _, c := range conjs {
			n, err := bd.bindExpr(c, &bindCtx{singleTable: tab, singleSlot: slot})
			if err != nil {
				return nil, err
			}
			preds = append(preds, n)
		}
		sortStable(preds)
		if slot == 0 {
			out.FactPred = expr.AndAll(preds)
		} else {
			out.DimPreds[slot-1] = expr.AndAll(preds)
		}
	}

	// Aggregates and grouping.
	groupCols := make(map[string]int) // rendered expr -> output position
	for _, g := range stmt.GroupBy {
		n, err := bd.bindExpr(g, &bindCtx{})
		if err != nil {
			return nil, err
		}
		col, ok := n.(expr.Col)
		if !ok {
			return nil, fmt.Errorf("query: GROUP BY supports only column references, got %s", g)
		}
		groupCols[g.String()] = len(out.GroupBy)
		out.GroupBy = append(out.GroupBy, col)
		out.GroupNames = append(out.GroupNames, col.Name)
	}
	for _, item := range stmt.Select {
		switch e := item.Expr.(type) {
		case sql.CallExpr:
			fn, ok := agg.ParseFunc(e.Func)
			if !ok {
				return nil, fmt.Errorf("query: unknown aggregate %q", e.Func)
			}
			spec := agg.Spec{Fn: fn}
			if !e.Star {
				n, err := bd.bindExpr(e.Arg, &bindCtx{})
				if err != nil {
					return nil, err
				}
				spec.Arg = n
			}
			name := item.Alias
			if name == "" {
				name = e.String()
			}
			spec.Name = name
			out.Aggs = append(out.Aggs, spec)
			out.AggNames = append(out.AggNames, name)
		case sql.Ident:
			if _, ok := groupCols[e.String()]; !ok {
				return nil, fmt.Errorf("query: select column %s is not in GROUP BY", e)
			}
		default:
			return nil, fmt.Errorf("query: select item %s must be an aggregate or a grouped column", item.Expr)
		}
	}

	// Mark referenced dimensions: explicit joins plus any dimension whose
	// columns appear in predicates, grouping, or aggregate arguments.
	for i := range schema.Dims {
		if joined[i] || !isTrue(out.DimPreds[i]) {
			out.DimRefs[i] = true
		}
	}
	markSlots := func(n expr.Node) {
		walkBound(n, func(c expr.Col) {
			if c.Slot > 0 {
				out.DimRefs[c.Slot-1] = true
			}
		})
	}
	for _, g := range out.GroupBy {
		markSlots(g)
	}
	for _, a := range out.Aggs {
		if a.Arg != nil {
			markSlots(a.Arg)
		}
	}
	// Every referenced dimension must have its join predicate present.
	for i, used := range out.DimRefs {
		if used && !joined[i] {
			return nil, fmt.Errorf("query: dimension %q referenced without a join predicate", schema.Dims[i].Name)
		}
	}

	// ORDER BY resolves against group columns (by expression text) or
	// aggregate aliases.
	for _, o := range stmt.OrderBy {
		pos := -1
		if p, ok := groupCols[o.Expr.String()]; ok {
			pos = p
		} else if id, ok := o.Expr.(sql.Ident); ok && id.Qualifier == "" {
			for i, name := range out.AggNames {
				if name == id.Name {
					pos = len(out.GroupBy) + i
					break
				}
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("query: ORDER BY %s does not match a group column or aggregate alias", o.Expr)
		}
		out.OrderBy = append(out.OrderBy, OrderSpec{Col: pos, Desc: o.Desc})
	}
	if stmt.HasLimit {
		if stmt.Limit < 0 {
			return nil, fmt.Errorf("query: negative LIMIT %d", stmt.Limit)
		}
		out.Limit = int(stmt.Limit)
	}
	return out, nil
}

// ApplyLimit truncates sorted results to the query's LIMIT, if any.
func (b *Bound) ApplyLimit(rs []agg.Result) []agg.Result {
	if b.Limit >= 0 && len(rs) > b.Limit {
		return rs[:b.Limit]
	}
	return rs
}

func (bd *binder) tableOf(slot int) *catalog.Table {
	if slot == 0 {
		return bd.schema.Fact
	}
	return bd.schema.Dims[slot-1]
}

// asJoin recognizes fact-to-dimension key/foreign-key equi-joins and
// validates them against the star metadata.
func (bd *binder) asJoin(e sql.Expr) (dim int, ok bool, err error) {
	b, isBin := e.(sql.BinExpr)
	if !isBin || b.Op != "=" {
		return 0, false, nil
	}
	li, lok := b.L.(sql.Ident)
	ri, rok := b.R.(sql.Ident)
	if !lok || !rok {
		return 0, false, nil
	}
	ls, lc, lerr := bd.resolveIdent(li)
	rs, rc, rerr := bd.resolveIdent(ri)
	if lerr != nil || rerr != nil {
		// Leave resolution errors to the general path for a better message.
		return 0, false, nil
	}
	if ls == rs {
		return 0, false, nil // single-table equality, a plain predicate
	}
	// Normalize to (fact, dim).
	fs, fc, ds, dc := ls, lc, rs, rc
	if fs != 0 {
		fs, fc, ds, dc = rs, rc, ls, lc
	}
	if fs != 0 || ds == 0 {
		return 0, false, fmt.Errorf("query: join %s is not fact-to-dimension; not a star query", e)
	}
	d := ds - 1
	if bd.schema.FKCol[d] != fc || bd.schema.KeyCol[d] != dc {
		return 0, false, fmt.Errorf("query: join %s does not match the star foreign key for %s", e, bd.schema.Dims[d].Name)
	}
	return d, true, nil
}

// referencedSlots returns the distinct table slots referenced by e.
func (bd *binder) referencedSlots(e sql.Expr) ([]int, error) {
	seen := make(map[int]bool)
	var firstErr error
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		switch n := e.(type) {
		case sql.Ident:
			s, _, err := bd.resolveIdent(n)
			if err != nil && firstErr == nil {
				firstErr = err
				return
			}
			if err == nil {
				seen[s] = true
			}
		case sql.BinExpr:
			walk(n.L)
			walk(n.R)
		case sql.NotExpr:
			walk(n.X)
		case sql.BetweenExpr:
			walk(n.X)
			walk(n.Lo)
			walk(n.Hi)
		case sql.InExpr:
			walk(n.X)
			for _, it := range n.List {
				walk(it)
			}
		case sql.CallExpr:
			if n.Arg != nil {
				walk(n.Arg)
			}
		}
	}
	walk(e)
	if firstErr != nil {
		return nil, firstErr
	}
	slots := make([]int, 0, len(seen))
	for s := range seen {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	return slots, nil
}

func (bd *binder) resolveIdent(id sql.Ident) (slot, col int, err error) {
	if id.Qualifier != "" {
		s, ok := bd.nameToSlot[id.Qualifier]
		if !ok {
			return 0, 0, fmt.Errorf("query: unknown table %q", id.Qualifier)
		}
		c := bd.tableOf(s).ColIndex(id.Name)
		if c < 0 {
			return 0, 0, fmt.Errorf("query: unknown column %s", id)
		}
		return s, c, nil
	}
	found := -1
	for _, s := range bd.fromSlots {
		if c := bd.tableOf(s).ColIndex(id.Name); c >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("query: ambiguous column %q", id.Name)
			}
			found, col = s, c
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("query: unknown column %q", id.Name)
	}
	return found, col, nil
}

// bindCtx controls column binding. With singleTable set, identifiers must
// belong to that table and bind with slot 0 (per-table predicate form);
// otherwise identifiers bind with their joined-row slot.
type bindCtx struct {
	singleTable *catalog.Table
	singleSlot  int
}

func (bd *binder) bindExpr(e sql.Expr, ctx *bindCtx) (expr.Node, error) {
	switch n := e.(type) {
	case sql.NumLit:
		return expr.Const{V: n.V}, nil
	case sql.StrLit:
		return nil, fmt.Errorf("query: string literal %s outside a comparison", n)
	case sql.Ident:
		slot, col, err := bd.resolveIdent(n)
		if err != nil {
			return nil, err
		}
		if ctx.singleTable != nil {
			if slot != ctx.singleSlot {
				return nil, fmt.Errorf("query: column %s does not belong to table %s", n, ctx.singleTable.Name)
			}
			return expr.Col{Slot: 0, Idx: col, Name: n.String()}, nil
		}
		return expr.Col{Slot: slot, Idx: col, Name: n.String()}, nil
	case sql.NotExpr:
		x, err := bd.bindExpr(n.X, ctx)
		if err != nil {
			return nil, err
		}
		return expr.Not{X: x}, nil
	case sql.BetweenExpr:
		x, err := bd.bindExpr(n.X, ctx)
		if err != nil {
			return nil, err
		}
		lo, err := bd.bindOperand(n.Lo, n.X, ctx)
		if err != nil {
			return nil, err
		}
		hi, err := bd.bindOperand(n.Hi, n.X, ctx)
		if err != nil {
			return nil, err
		}
		return expr.Bin{Op: expr.And,
			L: expr.Bin{Op: expr.Ge, L: x, R: lo},
			R: expr.Bin{Op: expr.Le, L: x, R: hi}}, nil
	case sql.InExpr:
		x, err := bd.bindExpr(n.X, ctx)
		if err != nil {
			return nil, err
		}
		vals := make([]int64, 0, len(n.List))
		for _, it := range n.List {
			v, err := bd.bindOperand(it, n.X, ctx)
			if err != nil {
				return nil, err
			}
			c, ok := v.(expr.Const)
			if !ok {
				return nil, fmt.Errorf("query: IN list item %s is not a literal", it)
			}
			vals = append(vals, c.V)
		}
		return expr.NewIn(x, vals), nil
	case sql.BinExpr:
		op, ok := sqlOps[n.Op]
		if !ok {
			return nil, fmt.Errorf("query: unsupported operator %q", n.Op)
		}
		var l, r expr.Node
		var err error
		// For comparisons, string literals bind against the opposite
		// side's dictionary.
		if isCmp(op) {
			l, err = bd.bindOperand(n.L, n.R, ctx)
			if err != nil {
				return nil, err
			}
			r, err = bd.bindOperand(n.R, n.L, ctx)
			if err != nil {
				return nil, err
			}
		} else {
			l, err = bd.bindExpr(n.L, ctx)
			if err != nil {
				return nil, err
			}
			r, err = bd.bindExpr(n.R, ctx)
			if err != nil {
				return nil, err
			}
		}
		return expr.Bin{Op: op, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("query: cannot bind %s", e)
}

// bindOperand binds e; if e is a string literal, it is encoded through
// the dictionary of the column referenced by other.
func (bd *binder) bindOperand(e, other sql.Expr, ctx *bindCtx) (expr.Node, error) {
	s, ok := e.(sql.StrLit)
	if !ok {
		return bd.bindExpr(e, ctx)
	}
	id, ok := other.(sql.Ident)
	if !ok {
		return nil, fmt.Errorf("query: string literal %s must compare against a column", s)
	}
	slot, col, err := bd.resolveIdent(id)
	if err != nil {
		return nil, err
	}
	tab := bd.tableOf(slot)
	d := tab.Dicts[col]
	if d == nil {
		return nil, fmt.Errorf("query: column %s is not a string column", id)
	}
	v, found := d.Lookup(s.S)
	if !found {
		// Unknown string: impossible dictionary id, so equality is
		// always false and inequality always true — correct semantics
		// without polluting the dictionary.
		v = -1
	}
	return expr.Const{V: v, Str: s.S}, nil
}

var sqlOps = map[string]expr.Op{
	"+": expr.Add, "-": expr.Sub, "*": expr.Mul, "/": expr.Div,
	"=": expr.Eq, "<>": expr.Ne, "<": expr.Lt, "<=": expr.Le,
	">": expr.Gt, ">=": expr.Ge, "AND": expr.And, "OR": expr.Or,
}

func isCmp(op expr.Op) bool {
	switch op {
	case expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge:
		return true
	}
	return false
}

func flattenAnd(e sql.Expr) []sql.Expr {
	if b, ok := e.(sql.BinExpr); ok && b.Op == "AND" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []sql.Expr{e}
}

func walkBound(n expr.Node, fn func(expr.Col)) {
	switch x := n.(type) {
	case expr.Col:
		fn(x)
	case expr.Bin:
		walkBound(x.L, fn)
		walkBound(x.R, fn)
	case expr.Not:
		walkBound(x.X, fn)
	case *expr.In:
		walkBound(x.X, fn)
	}
}

// sortStable keeps predicate ordering deterministic across runs so that
// plans and test expectations are reproducible.
func sortStable(preds []expr.Node) {
	sort.SliceStable(preds, func(i, j int) bool { return preds[i].String() < preds[j].String() })
}
