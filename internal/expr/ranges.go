package expr

import "math"

// Range constrains column Col of a single-table row (slot 0, hidden
// columns included) to the closed interval [Min, Max]. Min > Max is
// unsatisfiable: no value lies in it.
type Range struct {
	Col      int
	Min, Max int64
}

// Intersect narrows rs by [lo, hi] on col: the range rs already holds for
// col is intersected in place, or a new one is appended. rs keeps at most
// one range per column.
func Intersect(rs []Range, col int, lo, hi int64) []Range {
	for i := range rs {
		if rs[i].Col == col {
			rs[i].Min = max(rs[i].Min, lo)
			rs[i].Max = min(rs[i].Max, hi)
			return rs
		}
	}
	return append(rs, Range{Col: col, Min: lo, Max: hi})
}

// Unsatisfiable reports whether some range in rs is empty, so no row can
// meet all of them.
func Unsatisfiable(rs []Range) bool {
	for _, r := range rs {
		if r.Min > r.Max {
			return true
		}
	}
	return false
}

// ConjunctRanges intersects into rs every column-vs-constant comparison
// among the top-level AND conjuncts of a single-table predicate (columns
// in slot 0), and returns rs. Each such conjunct must hold for a row to
// satisfy n, so the ranges are a sound constraint on every satisfying
// row: a page whose zone map is disjoint from one of them holds none.
// Anything it cannot prove (OR, NOT, <>, arithmetic, column-vs-column,
// columns of other slots) is ignored, which only costs pruning, never
// correctness. Both fact-page pruning and the dimension plane's
// predicate scan derive their ranges here.
func ConjunctRanges(n Node, rs []Range) []Range {
	switch e := n.(type) {
	case Bin:
		switch e.Op {
		case And:
			rs = ConjunctRanges(e.L, rs)
			return ConjunctRanges(e.R, rs)
		case Eq, Lt, Le, Gt, Ge:
			col, c, ok, flipped := colConst(e.L, e.R)
			if !ok {
				return rs
			}
			op := e.Op
			if flipped {
				switch op {
				case Lt:
					op = Gt
				case Le:
					op = Ge
				case Gt:
					op = Lt
				case Ge:
					op = Le
				}
			}
			switch op {
			case Eq:
				return Intersect(rs, col, c, c)
			case Ge:
				return Intersect(rs, col, c, math.MaxInt64)
			case Gt:
				if c == math.MaxInt64 {
					return Intersect(rs, col, 1, 0) // no int64 is greater
				}
				return Intersect(rs, col, c+1, math.MaxInt64)
			case Le:
				return Intersect(rs, col, math.MinInt64, c)
			case Lt:
				if c == math.MinInt64 {
					return Intersect(rs, col, 1, 0) // no int64 is smaller
				}
				return Intersect(rs, col, math.MinInt64, c-1)
			}
		}
	case *In:
		cl, ok := e.X.(Col)
		if !ok || cl.Slot != 0 {
			return rs
		}
		if len(e.Vals) == 0 {
			return Intersect(rs, cl.Idx, 1, 0)
		}
		lo, hi := e.Vals[0], e.Vals[0]
		for _, v := range e.Vals[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		return Intersect(rs, cl.Idx, lo, hi)
	}
	return rs
}

// colConst matches `col op const` (flipped=false) or `const op col`
// (flipped=true) on a slot-0 column.
func colConst(l, r Node) (col int, c int64, ok, flipped bool) {
	if cl, isCol := l.(Col); isCol && cl.Slot == 0 {
		if k, isConst := r.(Const); isConst {
			return cl.Idx, k.V, true, false
		}
	}
	if k, isConst := l.(Const); isConst {
		if cl, isCol := r.(Col); isCol && cl.Slot == 0 {
			return cl.Idx, k.V, true, true
		}
	}
	return 0, 0, false, false
}
