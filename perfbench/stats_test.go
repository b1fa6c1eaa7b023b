package main

import "testing"

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		pct  float64
		want bool
	}{
		{200, 95, true},  // rank 190: 10 beyond
		{199, 95, false}, // rank 190: 9 beyond
		{20, 50, true},   // rank 10: 10 beyond
		{19, 50, false},  // rank 10: 9 beyond
		{1000, 99, true}, // rank 990: 10 beyond
		{999, 99, false}, // rank 990: 9 beyond
		{12, 90, false},  // rank 11: 1 beyond
		{0, 50, false},
	} {
		if got := tailOK(tc.n, tc.pct); got != tc.want {
			t.Errorf("tailOK(%d, p%v) = %v (beyond %d), want %v", tc.n, tc.pct, got, beyond(tc.n, tc.pct), tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // descending: percentile must sort a copy
	}
	if got := percentile(xs, 95); got != 190 {
		t.Fatalf("p95 = %v, want 190", got)
	}
	if xs[0] != 200 {
		t.Fatal("percentile modified its input")
	}
	if got := percentile(xs, 100); got != 200 {
		t.Fatalf("p100 = %v, want 200", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median %v", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("empty median %v", got)
	}
}
