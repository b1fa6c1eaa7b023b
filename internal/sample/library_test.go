package sample

import (
	"testing"

	"repro/internal/core"
	"repro/internal/macrobench"
	"repro/internal/model"
)

func gccAt(t *testing.T, limit uint64) core.Workload {
	t.Helper()
	w, ok := macrobench.ByName("gcc")
	if !ok {
		t.Fatal("no gcc workload")
	}
	w.MaxInstructions = limit
	return w
}

func TestLibraryPositions(t *testing.T) {
	plan := core.SamplePlan{Period: 100, Warmup: 10, Measure: 10}
	got := LibraryPositions(plan, 250)
	want := []uint64{0, 100, 200}
	if len(got) != len(want) {
		t.Fatalf("positions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("positions %v, want %v", got, want)
		}
	}
	// A window that does not fit is excluded.
	if got := LibraryPositions(plan, 219); len(got) != 2 {
		t.Fatalf("positions %v, want 2 entries (window at 200 does not fit in 219)", got)
	}
	if got := LibraryPositions(core.SamplePlan{Period: 100, Warmup: 10, Measure: 10, MaxIntervals: 1}, 250); len(got) != 1 {
		t.Fatalf("positions %v, want MaxIntervals to cap at 1", got)
	}
}

func TestLibraryRunMatchesContinuousSampling(t *testing.T) {
	const limit = 60_000
	m := model.MustBuild(model.DefaultAlphaConfig())
	w := gccAt(t, limit)
	plan := core.SamplePlan{Period: 6_000, Warmup: 300, Measure: 300}

	lib, err := BuildLibrary(m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(lib.States), 10; got != want {
		t.Fatalf("library has %d states, want %d", got, want)
	}
	libRes, err := RunWithLibrary(m, w, lib, plan, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if libRes.Intervals != 10 {
		t.Fatalf("library run measured %d intervals, want 10", libRes.Intervals)
	}
	// Library mode touches only the detailed windows: 10 × 600 of
	// 60000 stream instructions is a 10x reduction.
	if s := libRes.Speedup(); s < 9.9 {
		t.Errorf("library-mode speedup %.1fx, want 10x", s)
	}

	cont, err := Run(m, w, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The two modes warm through different paths (timed windows vs
	// purely functional warming), so they agree statistically, not
	// bitwise: each estimate must contain the other's mean.
	if !libRes.CPI.Contains(cont.CPI.Mean) && !cont.CPI.Contains(libRes.CPI.Mean) {
		t.Errorf("library CPI %s and continuous CPI %s disagree", libRes.CPI, cont.CPI)
	}

	// Determinism: a second library run reproduces the first exactly.
	again, err := RunWithLibrary(m, w, lib, plan, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.CPI != libRes.CPI || again.Raw.Cycles != libRes.Raw.Cycles {
		t.Errorf("library runs are not deterministic: %v vs %v", again.CPI, libRes.CPI)
	}
}

func TestLibraryRunRejectsMismatch(t *testing.T) {
	const limit = 20_000
	m := model.MustBuild(model.DefaultAlphaConfig())
	w := gccAt(t, limit)
	plan := core.SamplePlan{Period: 5_000, Warmup: 500, Measure: 500}
	lib, err := BuildLibrary(m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	other := plan
	other.Period = 4_000
	if _, err := RunWithLibrary(m, w, lib, other, 1, 0); err == nil {
		t.Error("period mismatch accepted")
	}
	w2 := w
	w2.Name = "not-gcc"
	if _, err := RunWithLibrary(m, w2, lib, plan, 1, 0); err == nil {
		t.Error("workload mismatch accepted")
	}
	w3 := w
	w3.MaxInstructions = limit * 2
	if _, err := RunWithLibrary(m, w3, lib, plan, 1, 0); err == nil {
		t.Error("budget beyond library coverage accepted")
	}
	stripped := model.MustBuild(model.SimStrippedConfig())
	if _, err := RunWithLibrary(stripped, w, lib, plan, 1, 0); err == nil {
		t.Error("incompatible machine accepted")
	}
}
