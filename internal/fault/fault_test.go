package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// memSource is a trivial in-memory PageSource for wrapper tests.
type memSource struct{ pages int }

func (m *memSource) NumCols() int     { return 2 }
func (m *memSource) RowsPerPage() int { return 4 }
func (m *memSource) NumPages() int    { return m.pages }
func (m *memSource) ReadPage(page int, dst []int64, scratch []byte) (int, error) {
	for i := 0; i < 8; i++ {
		dst[i] = int64(page)
	}
	return 4, nil
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"seed=7",
		"seed=7;shard=1",
		"seed=3;scan-err=0.25",
		"seed=1;scan-stall=5ms@0.5",
		"seed=1;scan-fail=40",
		"seed=9;admit-err=0.1",
		"seed=2;panic=pp@3",
		"seed=2;shard=2;scan-err=0.02;scan-stall=1ms@0.01;scan-fail=7;admit-err=0.05;panic=dist@1",
	} {
		spec, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"seed",              // not key=value
		"bogus=1",           // unknown clause
		"scan-err=1.5",      // probability out of range
		"scan-err=-0.1",     // probability out of range
		"scan-stall=5ms",    // missing @prob
		"scan-stall=zz@0.5", // bad duration
		"panic=elsewhere@1", // unknown site
		"panic=pp@0",        // visit count < 1
		"seed=notanint",     // bad int
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseEmptyDisables(t *testing.T) {
	for _, s := range []string{"", "  "} {
		spec, err := Parse(s)
		if err != nil || spec != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", s, spec, err)
		}
	}
	// And the nil spec produces nil injectors whose hooks are no-ops.
	var spec *Spec
	in := spec.ForShard(0, nil)
	if in != nil {
		t.Fatal("nil spec produced an injector")
	}
	if err := in.AdmitErr(); err != nil {
		t.Fatal(err)
	}
	in.PanicPoint(SitePreprocessor) // must not panic
	src := &memSource{pages: 3}
	if got := in.WrapSource(src, nil); got != PageSource(src) {
		t.Fatal("nil injector wrapped the source")
	}
}

func TestShardTargeting(t *testing.T) {
	spec, err := Parse("seed=1;shard=2;scan-err=1")
	if err != nil {
		t.Fatal(err)
	}
	if in := spec.ForShard(0, nil); in != nil {
		t.Fatal("shard 0 got an injector for a shard=2 spec")
	}
	if in := spec.ForShard(2, nil); in == nil {
		t.Fatal("shard 2 did not get an injector")
	}
	// shard=-1 (default) targets everyone.
	all, err := Parse("seed=1;scan-err=1")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if all.ForShard(s, nil) == nil {
			t.Fatalf("shard %d missing injector for untargeted spec", s)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []bool {
		spec, _ := Parse("seed=42;scan-err=0.5")
		in := spec.ForShard(1, nil)
		src := in.WrapSource(&memSource{pages: 8}, nil)
		var outcome []bool
		dst := make([]int64, 8)
		for i := 0; i < 64; i++ {
			_, err := src.ReadPage(i%8, dst, nil)
			outcome = append(outcome, err != nil)
		}
		return outcome
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d diverged between replays", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("scan-err=0.5 fired %d/%d times; schedule looks degenerate", fired, len(a))
	}
	// Different shards draw from different streams.
	spec, _ := Parse("seed=42;scan-err=0.5")
	other := spec.ForShard(2, nil)
	src := other.WrapSource(&memSource{pages: 8}, nil)
	dst := make([]int64, 8)
	diverged := false
	for i := 0; i < 64; i++ {
		_, err := src.ReadPage(i%8, dst, nil)
		if (err != nil) != a[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("shard 1 and shard 2 drew identical schedules")
	}
}

func TestTransientVsHard(t *testing.T) {
	spec, _ := Parse("seed=1;scan-err=1")
	in := spec.ForShard(0, nil)
	src := in.WrapSource(&memSource{pages: 4}, nil)
	_, err := src.ReadPage(0, make([]int64, 8), nil)
	var fe *Error
	if !errors.As(err, &fe) || !fe.Transient() {
		t.Fatalf("scan-err fault = %v, want transient *Error", err)
	}
	if !strings.Contains(fe.Error(), "transient") {
		t.Fatalf("message %q does not say transient", fe.Error())
	}

	// scan-fail counts reads, not page indices: reads 0 and 1 are clean,
	// read 2 dies, and the disk stays dead from then on — even for a
	// page that read fine before.
	spec, _ = Parse("seed=1;scan-fail=2")
	in = spec.ForShard(3, nil)
	src = in.WrapSource(&memSource{pages: 4}, nil)
	for i := 0; i < 2; i++ {
		if _, err := src.ReadPage(i, make([]int64, 8), nil); err != nil {
			t.Fatalf("read %d should be clean: %v", i, err)
		}
	}
	_, err = src.ReadPage(2, make([]int64, 8), nil)
	if !errors.As(err, &fe) || fe.Transient() || fe.Page != 2 {
		t.Fatalf("scan-fail fault = %v, want hard *Error at page 2", err)
	}
	if _, err := src.ReadPage(0, make([]int64, 8), nil); !errors.As(err, &fe) || fe.Transient() {
		t.Fatalf("read after the kill point = %v, want hard *Error", err)
	}
	if c := in.Counters(); c.HardFails != 2 {
		t.Fatalf("counters = %+v, want two hard fails", c)
	}
}

func TestStallAbortsOnStop(t *testing.T) {
	spec, _ := Parse("seed=1;scan-stall=1h@1")
	in := spec.ForShard(0, nil)
	stop := make(chan struct{})
	src := in.WrapSource(&memSource{pages: 4}, stop)
	done := make(chan error, 1)
	go func() {
		_, err := src.ReadPage(0, make([]int64, 8), nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stalled read returned %v after stop", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled read did not abort when stop closed")
	}
	if c := in.Counters(); c.Stalls != 1 {
		t.Fatalf("counters = %+v, want one stall", c)
	}
}

func TestPanicPoint(t *testing.T) {
	spec, _ := Parse("seed=1;panic=dist@3")
	in := spec.ForShard(1, nil)
	in.PanicPoint(SitePreprocessor) // wrong site: no-op
	in.PanicPoint(SiteDistributor)  // visit 1
	in.PanicPoint(SiteDistributor)  // visit 2
	panicked := func() (v any) {
		defer func() { v = recover() }()
		in.PanicPoint(SiteDistributor) // visit 3: fires
		return nil
	}()
	p, ok := panicked.(*Panic)
	if !ok || p.Site != SiteDistributor || p.Shard != 1 {
		t.Fatalf("recovered %v, want *Panic{dist, shard 1}", panicked)
	}
	// One-shot: later visits pass.
	in.PanicPoint(SiteDistributor)
	if c := in.Counters(); c.Panics != 1 {
		t.Fatalf("counters = %+v, want one panic", c)
	}
}

func TestAdmitErr(t *testing.T) {
	spec, _ := Parse("seed=5;admit-err=1")
	in := spec.ForShard(0, nil)
	err := in.AdmitErr()
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != "admit" {
		t.Fatalf("AdmitErr = %v, want admit *Error", err)
	}
	spec, _ = Parse("seed=5")
	if err := spec.ForShard(0, nil).AdmitErr(); err != nil {
		t.Fatalf("admit-err unset still injected: %v", err)
	}
}
