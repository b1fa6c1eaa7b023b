package ruu

import (
	"testing"

	"repro/internal/microbench"
)

// TestRetireSteadyStateAllocFree is the RUU-model twin of the pin in
// internal/alpha: per-run setup allocations are constant, so the
// difference between a short and a 9x longer run of the same workload
// exposes any per-instruction allocation on the dispatch/issue/commit
// path. C-Ca mixes ALU, memory and control work, so the measured path
// includes the RUU scan, the LSQ and the branch recovery machinery.
func TestRetireSteadyStateAllocFree(t *testing.T) {
	m := DefaultConfig()
	w, ok := microbench.ByName("C-Ca")
	if !ok {
		t.Fatal("no C-Ca workload")
	}
	measure := func(limit uint64) float64 {
		wl := w
		wl.MaxInstructions = limit
		return testing.AllocsPerRun(5, func() {
			if _, err := m.Run(wl); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(5_000)
	grown := measure(45_000)
	if extra := grown - base; extra > 4 {
		t.Errorf("commit path allocates in steady state: %.0f extra allocs over 40k extra instructions (short run %.0f, long run %.0f)",
			extra, base, grown)
	}
}
