package sample

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/macrobench"
	"repro/internal/model"
)

// testWorkload returns a macrobenchmark bounded to limit dynamic
// instructions.
func testWorkload(t *testing.T, name string, limit uint64) core.Workload {
	t.Helper()
	w, ok := macrobench.ByName(name)
	if !ok {
		t.Fatalf("unknown macrobenchmark %q", name)
	}
	w.MaxInstructions = limit
	return w
}

func machines() []core.Machine {
	return []core.Machine{
		model.MustBuild(model.DefaultAlphaConfig()),
		model.MustBuild(model.DefaultRUUConfig()),
		model.MustBuild(model.DefaultInorderConfig()),
		model.MustBuild(model.DefaultNativeConfig()),
	}
}

// TestAllModelsHonorSampling: every timing model must run a sampled
// workload, produce the expected interval count and accounting, and
// return a stack that sums exactly to the measured cycles.
func TestAllModelsHonorSampling(t *testing.T) {
	const limit = 15_000
	plan := PlanFor(limit) // period 1500, warmup 150, measure 150
	for _, m := range machines() {
		w := testWorkload(t, "gzip", limit)
		r, err := Run(m, w, plan, 0)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r.Intervals != 10 {
			t.Errorf("%s: %d intervals, want 10", m.Name(), r.Intervals)
		}
		sr := r.Raw.Sampled
		if sr == nil {
			t.Fatalf("%s: no SampledRun attached", m.Name())
		}
		if sr.StreamInstructions != limit {
			t.Errorf("%s: stream covered %d insts, want %d", m.Name(), sr.StreamInstructions, limit)
		}
		if want := uint64(10) * plan.Detailed(); sr.DetailedInstructions != want {
			t.Errorf("%s: %d detailed insts, want %d", m.Name(), sr.DetailedInstructions, want)
		}
		if sp := r.Speedup(); math.Abs(sp-5.0) > 1e-9 {
			t.Errorf("%s: speedup %.3f, want exactly 5.0", m.Name(), sp)
		}
		if r.Raw.Instructions != uint64(10)*plan.Measure {
			t.Errorf("%s: measured %d insts, want %d", m.Name(), r.Raw.Instructions, 10*plan.Measure)
		}
		if r.Raw.Breakdown == nil || r.Raw.Breakdown.Sum() != r.Raw.Cycles {
			t.Errorf("%s: measured stack does not sum to measured cycles", m.Name())
		}
		var cyc uint64
		for _, s := range sr.Samples {
			if s.Breakdown.Sum() != s.Cycles {
				t.Errorf("%s: interval at %d: stack sums to %d, cycles %d",
					m.Name(), s.Start, s.Breakdown.Sum(), s.Cycles)
			}
			cyc += s.Cycles
		}
		if cyc != r.Raw.Cycles {
			t.Errorf("%s: interval cycles sum to %d, run reports %d", m.Name(), cyc, r.Raw.Cycles)
		}
		if r.CPI.N != r.Intervals || r.CPI.Level != DefaultLevel {
			t.Errorf("%s: CPI estimate %+v inconsistent with %d intervals", m.Name(), r.CPI, r.Intervals)
		}
		// Mean of per-interval CPIs must equal the ratio-of-sums CPI:
		// every complete interval measures the same instruction count.
		if got, want := r.CPI.Mean, r.Raw.CPI(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: CPI mean %.6f != ratio-of-sums %.6f", m.Name(), got, want)
		}
		// Component estimates decompose the CPI estimate.
		var compSum float64
		for c := range r.Components {
			compSum += r.Components[c].Mean
		}
		if math.Abs(compSum-r.CPI.Mean) > 1e-9 {
			t.Errorf("%s: component means sum to %.6f, CPI mean %.6f", m.Name(), compSum, r.CPI.Mean)
		}
	}
}

// TestSampledAccuracy: on a real macrobenchmark, the sampled estimate
// must land near the full-run CPI and its 95% CI must contain it.
func TestSampledAccuracy(t *testing.T) {
	const limit = 15_000
	m := model.MustBuild(model.DefaultAlphaConfig())
	full, err := m.Run(testWorkload(t, "gcc", limit))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(m, testWorkload(t, "gcc", limit), PlanFor(limit), 0)
	if err != nil {
		t.Fatal(err)
	}
	errPct := (r.CPI.Mean - full.CPI()) / full.CPI() * 100
	if math.Abs(errPct) > 10 {
		t.Errorf("sampled CPI %.4f vs full %.4f: %.1f%% error", r.CPI.Mean, full.CPI(), errPct)
	}
	if !r.CPI.Contains(full.CPI()) {
		t.Errorf("full CPI %.4f outside sampled CI [%.4f, %.4f]",
			full.CPI(), r.CPI.Low(), r.CPI.High())
	}
}

// TestSampledDeterminism: a sampled run is a pure function of
// (machine, workload, plan).
func TestSampledDeterminism(t *testing.T) {
	const limit = 15_000
	m := model.MustBuild(model.DefaultRUUConfig())
	a, err := Run(m, testWorkload(t, "mesa", limit), PlanFor(limit), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, testWorkload(t, "mesa", limit), PlanFor(limit), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPI != b.CPI || a.Raw.Cycles != b.Raw.Cycles {
		t.Errorf("nondeterministic sampled run: %+v vs %+v", a.CPI, b.CPI)
	}
	for i := range a.Raw.Sampled.Samples {
		if a.Raw.Sampled.Samples[i] != b.Raw.Sampled.Samples[i] {
			t.Errorf("interval %d differs between identical runs", i)
		}
	}
}

// TestFullRunUnaffected: a workload without a plan must produce
// byte-identical results to the pre-sampling code path.
func TestFullRunUnaffected(t *testing.T) {
	const limit = 15_000
	for _, m := range machines() {
		w := testWorkload(t, "gzip", limit)
		r, err := m.Run(w)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r.Sampled != nil {
			t.Errorf("%s: full run carries a SampledRun record", m.Name())
		}
		if r.Instructions != limit {
			t.Errorf("%s: full run retired %d, want %d", m.Name(), r.Instructions, limit)
		}
	}
}

// TestPlanCheck pins plan validation.
func TestPlanCheck(t *testing.T) {
	bad := []core.SamplePlan{
		{},
		{Period: 100, Measure: 10},             // warmup 0
		{Period: 100, Warmup: 10},              // measure 0
		{Period: 100, Warmup: 60, Measure: 50}, // detailed > period
		{Period: 100, Warmup: 10, Measure: 10, MaxIntervals: -1},
	}
	for _, p := range bad {
		if err := p.Check(); err == nil {
			t.Errorf("plan %+v accepted, want error", p)
		}
	}
	good := core.SamplePlan{Period: 100, Warmup: 10, Measure: 10, MaxIntervals: 5}
	if err := good.Check(); err != nil {
		t.Errorf("plan %+v rejected: %v", good, err)
	}
}

// TestMaxIntervals: the interval cap stops the run early.
func TestMaxIntervals(t *testing.T) {
	const limit = 15_000
	plan := PlanFor(limit)
	plan.MaxIntervals = 3
	r, err := Run(model.MustBuild(model.DefaultAlphaConfig()), testWorkload(t, "gzip", limit), plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Intervals != 3 {
		t.Errorf("%d intervals, want 3", r.Intervals)
	}
	// Only three periods of the stream were touched.
	if want := 3 * plan.Period; r.StreamInstructions() != want {
		t.Errorf("stream covered %d insts, want %d", r.StreamInstructions(), want)
	}
}

// TestPlanFor pins the budget-scaled default schedule.
func TestPlanFor(t *testing.T) {
	p := PlanFor(15_000)
	if p.Period != 1500 || p.Warmup != 150 || p.Measure != 150 {
		t.Errorf("PlanFor(15000) = %+v", p)
	}
	if err := p.Check(); err != nil {
		t.Errorf("default plan invalid: %v", err)
	}
	if err := PlanFor(0).Check(); err != nil {
		t.Errorf("zero-limit plan invalid: %v", err)
	}
	if err := PlanFor(7).Check(); err != nil {
		t.Errorf("tiny-limit plan invalid: %v", err)
	}
}

// TestFromResultErrors pins the error paths.
func TestFromResultErrors(t *testing.T) {
	if _, err := FromResult(core.RunResult{}, 0); err == nil {
		t.Error("unsampled result accepted")
	}
	res := core.RunResult{Sampled: &core.SampledRun{Plan: PlanFor(0)}}
	if _, err := FromResult(res, 0); err == nil {
		t.Error("zero-interval result accepted")
	}
}

// TestEstimate pins the Estimate helpers.
func TestEstimate(t *testing.T) {
	e := EstimateOf([]float64{1, 2, 3}, 0)
	if e.Level != DefaultLevel || e.N != 3 || e.Mean != 2 {
		t.Errorf("EstimateOf = %+v", e)
	}
	if !e.Contains(2) || !e.Contains(e.Low()) || !e.Contains(e.High()) {
		t.Error("Contains misses interior/boundary points")
	}
	if e.Contains(e.High() + 1e-9) {
		t.Error("Contains accepts points beyond the bound")
	}
	if e.RelHalf() <= 0 {
		t.Error("RelHalf not positive for a spread sample")
	}
	var zero Estimate
	if zero.RelHalf() != 0 {
		t.Error("zero-mean RelHalf not 0")
	}
}

// TestComponentEstimatesMeaningful: on a memory-heavy macrobenchmark,
// the sampled per-component estimates must attribute some CPI beyond
// base, and each component mean must be the mean of that component's
// per-interval observations.
func TestComponentEstimatesMeaningful(t *testing.T) {
	const limit = 15_000
	r, err := Run(model.MustBuild(model.DefaultAlphaConfig()), testWorkload(t, "art", limit), PlanFor(limit), 0)
	if err != nil {
		t.Fatal(err)
	}
	var beyondBase float64
	for c := events.Component(1); c < events.NumComponents; c++ {
		beyondBase += r.Components[c].Mean
	}
	if beyondBase <= 0 {
		t.Error("no CPI attributed beyond base on a memory-bound workload")
	}
	var base []float64
	for _, s := range r.Raw.Sampled.Samples {
		base = append(base, s.ComponentCPI(events.CompBase))
	}
	want := EstimateOf(base, 0)
	if math.Abs(want.Mean-r.Components[events.CompBase].Mean) > 1e-12 {
		t.Errorf("base component mean %.6f, recomputed %.6f",
			r.Components[events.CompBase].Mean, want.Mean)
	}
}
