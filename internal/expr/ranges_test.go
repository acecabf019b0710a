package expr

import (
	"math"
	"math/rand"
	"testing"
)

func konst(v int64) Const { return Const{V: v} }

// TestConjunctRanges pins the range-extraction rules: top-level AND
// conjuncts of column-vs-constant comparisons become closed intervals,
// intersected per column; flipped operand order is normalized, IN lists
// collapse to their hull, and everything unprovable (OR, NOT, <>, other
// slots, arithmetic, column-vs-column) is ignored.
func TestConjunctRanges(t *testing.T) {
	cases := []struct {
		name string
		node Node
		want []Range
	}{
		{"between", Between(col(3), 5, 10), []Range{{3, 5, 10}}},
		{"eq", Bin{Op: Eq, L: col(2), R: konst(4)}, []Range{{2, 4, 4}}},
		{"flipped-gt", Bin{Op: Gt, L: konst(7), R: col(1)},
			[]Range{{1, math.MinInt64, 6}}}, // 7 > c  ⇒  c < 7
		{"strict-lt", Bin{Op: Lt, L: col(0), R: konst(9)}, []Range{{0, math.MinInt64, 8}}},
		{"in-hull", NewIn(col(5), []int64{9, 3, 6}), []Range{{5, 3, 9}}},
		{"in-empty", NewIn(col(5), nil), []Range{{5, 1, 0}}}, // unsatisfiable marker
		{"gt-maxint", Bin{Op: Gt, L: col(0), R: konst(math.MaxInt64)},
			[]Range{{0, 1, 0}}}, // no int64 is greater: unsatisfiable, no overflow
		{"lt-minint", Bin{Op: Lt, L: col(0), R: konst(math.MinInt64)}, []Range{{0, 1, 0}}},
		{"two-columns", AndAll([]Node{Between(col(0), 1, 9), Bin{Op: Eq, L: col(2), R: konst(3)}, Between(col(0), 4, 20)}),
			[]Range{{0, 4, 9}, {2, 3, 3}}},
		{"contradiction", Bin{Op: And, L: Bin{Op: Eq, L: col(1), R: konst(2)}, R: Bin{Op: Eq, L: col(1), R: konst(3)}},
			[]Range{{1, 3, 2}}},
		{"or-ignored", Bin{Op: Or,
			L: Bin{Op: Eq, L: col(0), R: konst(1)},
			R: Bin{Op: Eq, L: col(0), R: konst(2)}}, nil},
		{"not-ignored", Not{X: Bin{Op: Eq, L: col(0), R: konst(1)}}, nil},
		{"ne-ignored", Bin{Op: Ne, L: col(0), R: konst(1)}, nil},
		{"other-slot-ignored", Bin{Op: Eq, L: Col{Slot: 1, Idx: 0}, R: konst(1)}, nil},
		{"col-vs-col-ignored", Bin{Op: Lt, L: col(0), R: col(1)}, nil},
		{"arith-ignored", Bin{Op: Eq, L: Bin{Op: Add, L: col(0), R: konst(1)}, R: konst(5)}, nil},
		{"true", TRUE, nil},
	}
	for _, tc := range cases {
		got := ConjunctRanges(tc.node, nil)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: ranges %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: range %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
		if want := tc.name == "in-empty" || tc.name == "gt-maxint" || tc.name == "lt-minint" || tc.name == "contradiction"; Unsatisfiable(got) != want {
			t.Fatalf("%s: Unsatisfiable = %v, want %v", tc.name, !want, want)
		}
	}
	// Intersect narrows an existing column's range in place.
	rs := Intersect([]Range{{0, 1, 10}}, 0, 5, 20)
	if len(rs) != 1 || rs[0] != (Range{0, 5, 10}) {
		t.Fatalf("Intersect = %v", rs)
	}
}

// randPred builds a random single-table predicate over three columns:
// comparisons in both operand orders, IN lists, BETWEEN, and AND/OR/NOT
// above them.
func randPred(rng *rand.Rand, depth int) Node {
	if depth == 0 || rng.Intn(3) == 0 {
		c, k := col(rng.Intn(3)), konst(rng.Int63n(20)-5)
		switch rng.Intn(5) {
		case 0:
			vals := make([]int64, rng.Intn(4))
			for i := range vals {
				vals[i] = rng.Int63n(20) - 5
			}
			return NewIn(c, vals)
		case 1:
			lo := rng.Int63n(20) - 5
			return Between(c, lo, lo+rng.Int63n(8))
		case 2:
			return Bin{Op: Op(int(Eq) + rng.Intn(6)), L: k, R: c}
		default:
			return Bin{Op: Op(int(Eq) + rng.Intn(6)), L: c, R: k}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return Bin{Op: Or, L: randPred(rng, depth-1), R: randPred(rng, depth-1)}
	case 1:
		return Not{X: randPred(rng, depth-1)}
	default:
		return Bin{Op: And, L: randPred(rng, depth-1), R: randPred(rng, depth-1)}
	}
}

// TestConjunctRangesSound is the property page pruning rests on: every
// row that satisfies a predicate lies inside every range ConjunctRanges
// derives from it, so an unsatisfiable set admits no row at all.
func TestConjunctRangesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := make([]int64, 3)
	for trial := 0; trial < 3000; trial++ {
		pred := randPred(rng, 3)
		rs := ConjunctRanges(pred, nil)
		for k := 0; k < 50; k++ {
			for c := range row {
				row[c] = rng.Int63n(24) - 7
			}
			if !EvalRow(pred, row) {
				continue
			}
			for _, r := range rs {
				if row[r.Col] < r.Min || row[r.Col] > r.Max {
					t.Fatalf("%s: row %v satisfies it but lies outside %+v", pred, row, r)
				}
			}
		}
	}
}
