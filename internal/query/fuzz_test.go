package query

import (
	"math/rand"
	"testing"

	"cjoin/internal/ssb"
)

// FuzzParseBind drives arbitrary text through the SQL front end against
// an SSB star: the lexer, parser and binder must reject what they cannot
// bind with an error, never a panic, and every predicate they bind must
// fingerprint, the same way twice. The corpus is seeded with an
// instance of each workload template and two queries with fact
// predicates, IN lists and LIMIT; every seed must bind. A failing input
// lands in testdata/fuzz and is replayed by every later go test.
func FuzzParseBind(f *testing.F) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: 100, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seeds := []string{
		"SELECT COUNT(*) AS n FROM lineorder WHERE lo_quantity < 25 AND lo_discount BETWEEN 1 AND 3",
		"SELECT SUM(lo_revenue), c_region FROM lineorder, customer WHERE lo_custkey = c_custkey AND c_region IN ('ASIA', 'EUROPE') GROUP BY c_region ORDER BY c_region LIMIT 3",
	}
	for _, tpl := range ssb.Templates() {
		seeds = append(seeds, ds.Instantiate(tpl, 0.1, rng))
	}
	for _, src := range seeds {
		if _, err := ParseBind(src, ds.Star); err != nil {
			f.Fatalf("seed does not bind: %v\n%s", err, src)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		b, err := ParseBind(src, ds.Star)
		if err != nil {
			return
		}
		fact := Fingerprint(b.FactPred)
		if again := Fingerprint(b.FactPred); again != fact {
			t.Fatalf("fact predicate fingerprints %x then %x", fact, again)
		}
		for i, p := range b.DimPreds {
			if fp, again := Fingerprint(p), Fingerprint(p); fp != again {
				t.Fatalf("dimension %d predicate fingerprints %x then %x", i, fp, again)
			}
		}
	})
}
