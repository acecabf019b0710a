package core

import (
	"math/rand"
	"testing"

	"cjoin/internal/bitvec"
)

// specFilter is the §3.2.1 specification of one dimension's Filter
// state, independent of any store layout: each active slot is either
// non-referencing (nil key set) or holds the key set its predicate
// selected.
type specFilter map[int]map[int64]bool

// shape returns the dimension's reference count and the set of keys an
// entry must exist for: exactly those some referencing slot selects.
func (m specFilter) shape() (refs int, stored map[int64]bool) {
	stored = map[int64]bool{}
	for _, sel := range m {
		if sel != nil {
			refs++
		}
		for k := range sel {
			stored[k] = true
		}
	}
	return refs, stored
}

// bits is b_δ for the dimension tuple with the given key: bit i is set
// iff slot i does not reference the dimension or selects the key. For a
// key no referencing slot selects this is b_Dj, the miss vector.
func (m specFilter) bits(key int64, maxConc int) bitvec.Vec {
	bv := bitvec.New(maxConc)
	for slot, sel := range m {
		if sel == nil || sel[key] {
			bv.Set(slot)
		}
	}
	return bv
}

// specTuple is one fact tuple as the Filter sees it: foreign key, bτ, and
// whether a dimension row was attached by the probe.
type specTuple struct {
	key      int64
	bv       bitvec.Vec
	attached bool
}

// filter applies §3.2.2 to a batch: the survivors in order with their
// expected bit-vectors and attachments, plus the probe and drop counts.
func (m specFilter) filter(in []specTuple, maxConc int) (out []specTuple, probes, drops int64) {
	refs, stored := m.shape()
	if refs == 0 {
		return in, 0, 0 // no query references D_j: the Filter is inactive
	}
	bDj := m.bits(-1, maxConc)
	for _, tp := range in {
		if tp.bv.AndNotIsZero(bDj) { // probe-skip: bτ AND NOT b_Dj == 0
			out = append(out, tp)
			continue
		}
		probes++
		tp.bv = tp.bv.Clone()
		tp.bv.And(m.bits(tp.key, maxConc))
		tp.attached = stored[tp.key]
		if tp.bv.IsZero() {
			drops++
			continue
		}
		out = append(out, tp)
	}
	return out, probes, drops
}

// TestDimTableParity is the property test for the dimht Filter store: a
// random interleaving of admissions, removals, and batch filters is
// applied to a dimht-backed dimState and to the spec-level model above
// in lockstep, and every observable — table size, reference count,
// surviving tuples, their bit-vectors, attached dimension rows, and
// probe/drop statistics — must agree with the specification.
func TestDimTableParity(t *testing.T) {
	const (
		maxConc = 96 // multi-word vectors: covers the general path
		dimRows = 60
		rounds  = 400
	)
	star := miniStar(t, dimRows)
	cow := newTestDimState(star, 0, maxConc)
	spec := specFilter{}
	var wantIn, wantProbes, wantDrops int64

	rng := rand.New(rand.NewSource(20090824))

	filterPair := func() {
		b := newBatch(32, 2, bitvec.Words(maxConc), 1)
		var in []specTuple
		for i := 0; i < 32; i++ {
			key := rng.Int63n(dimRows + 20) // some keys miss the table
			want := bitvec.New(maxConc)
			for slot := range spec {
				if rng.Intn(2) == 0 {
					want.Set(slot)
				}
			}
			if want.IsZero() {
				continue // relevant to no query: the Preprocessor drops it
			}
			row, bv := b.push()
			row[0] = key
			bv.CopyFrom(want)
			in = append(in, specTuple{key: key, bv: want})
		}
		want, probes, drops := spec.filter(in, maxConc)
		if refs, _ := spec.shape(); refs > 0 {
			wantIn += int64(len(in))
		}
		wantProbes += probes
		wantDrops += drops

		cow.filterBatch(b)

		if len(b.sel) != len(want) {
			t.Fatalf("survivor count dimht=%d spec=%d", len(b.sel), len(want))
		}
		for i, w := range want {
			row, bv, dims := b.survivor(i)
			if row[0] != w.key {
				t.Fatalf("row order diverged at %d: %d vs %d", i, row[0], w.key)
			}
			if !bv.Equal(w.bv) {
				t.Fatalf("bits diverged for key %d: %v vs %v", w.key, bv, w.bv)
			}
			d := dims[0]
			if (d != nil) != w.attached {
				t.Fatalf("attachment diverged for key %d: %v, spec attached=%v", w.key, d, w.attached)
			}
			if d != nil && (d[0] != w.key || d[1] != w.key%5) {
				t.Fatalf("attached row for key %d is %v, want (%d, %d)", w.key, d, w.key, w.key%5)
			}
		}
	}

	check := func() {
		refs, stored := spec.shape()
		if got := cow.size(); got != len(stored) {
			t.Fatalf("size dimht=%d spec=%d", got, len(stored))
		}
		if got := cow.refCount(); got != refs {
			t.Fatalf("refs dimht=%d spec=%d", got, refs)
		}
		if s := cow.stats(); s.Probes != wantProbes || s.Drops != wantDrops || s.TuplesIn != wantIn {
			t.Fatalf("stats diverged: dimht=%+v spec in=%d probes=%d drops=%d", s, wantIn, wantProbes, wantDrops)
		}
	}

	for round := 0; round < rounds; round++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(spec) < maxConc/2:
			// Admit a fresh slot: referencing with random selectivity, or
			// non-referencing.
			slot := rng.Intn(maxConc)
			if _, used := spec[slot]; used {
				continue
			}
			if rng.Intn(3) == 0 {
				if err := cow.admit(slot, nil); err != nil {
					t.Fatal(err)
				}
				spec[slot] = nil
			} else {
				x := rng.Int63n(6)
				if err := cow.admit(slot, predLt(x)); err != nil {
					t.Fatal(err)
				}
				sel := map[int64]bool{}
				for k := int64(0); k < dimRows; k++ {
					if k%5 < x { // miniStar's v column is k%5
						sel[k] = true
					}
				}
				spec[slot] = sel
			}
		case op == 1 && len(spec) > 0:
			// Remove a random active slot.
			for slot, sel := range spec {
				emptied := cow.remove(slot, sel != nil)
				delete(spec, slot)
				if refs, stored := spec.shape(); emptied != (refs == 0 && len(stored) == 0) {
					t.Fatalf("emptied=%v for slot %d, spec has refs=%d stored=%d", emptied, slot, refs, len(stored))
				}
				break
			}
		default:
			filterPair()
		}
		check()
	}
}
