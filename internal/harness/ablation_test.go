package harness

import "testing"

func TestAblationProbeSkip(t *testing.T) {
	fig, err := RunAblationProbeSkip(tinyConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.Y) != 2 || s.Y[0] <= 0 || s.Y[1] <= 0 {
		t.Fatalf("series %v", s)
	}
}

func TestAblationMaxConc(t *testing.T) {
	fig, err := RunAblationMaxConc(tinyConfig(), []int{16, 512}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series[0].Y) != 2 {
		t.Fatalf("fig %v", fig)
	}
	if _, err := RunAblationMaxConc(tinyConfig(), []int{2}, 4); err == nil {
		t.Fatal("width below concurrency must error")
	}
}

func TestAblationFilterOrder(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 4
	fig, err := RunAblationFilterOrder(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series[0].Y) != 2 {
		t.Fatalf("fig %v", fig)
	}
}

func TestAblationCompression(t *testing.T) {
	fig, err := RunAblationCompression(tinyConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("fig %v", fig)
	}
	ratio := fig.Series[1].Y
	if ratio[1] <= 1 {
		t.Fatalf("compression ratio %v", ratio)
	}
}
