package sweep

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/simcache"
)

// refConfig is the reference machine analyses measure against.
func refConfig() any { return model.DefaultNativeConfig() }

// Sensitivity must rank a knob that moves CPI a lot (integer issue
// width on ILP-heavy kernels) above a knob that cannot matter for a
// cache-resident suite (DRAM page policy).
func TestSensitivityRanking(t *testing.T) {
	s := &Space{
		Base: tuningSpace().Base,
		Axes: []Axis{
			Bools("openpage", "DRAM.OpenPage", true, false),
			Ints("issue", "IntIssueWidth", 4, 1),
		},
	}
	e := &Engine{
		Workloads: capped(6000, testWorkloads(t, "E-I", "E-D1", "C-Ca")),
		Cache:     simcache.New(0),
	}
	res, err := Sensitivity(context.Background(), e, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Axes) != 2 {
		t.Fatalf("%d axis reports", len(res.Axes))
	}
	if res.Axes[0].Axis != "issue" {
		t.Errorf("top-ranked axis = %q, want issue (got order %q, %q)",
			res.Axes[0].Axis, res.Axes[0].Axis, res.Axes[1].Axis)
	}
	if res.Axes[0].MeanAbsPctDelta <= res.Axes[1].MeanAbsPctDelta {
		t.Errorf("ranking not by impact: %.2f <= %.2f",
			res.Axes[0].MeanAbsPctDelta, res.Axes[1].MeanAbsPctDelta)
	}
	if res.Axes[0].Values[0].TopComponent == "" {
		t.Error("impactful axis has no attributed CPI-stack component")
	}
	if res.HasRef {
		t.Error("HasRef set without a reference")
	}
}

func TestSensitivityWithReference(t *testing.T) {
	// Around sim-initial, disabling a real modeling bug must show up
	// as an error reduction on its best value.
	s := &Space{
		Base: SimInitialBugSpace().Base,
		Axes: []Axis{
			Bools("latebr", "Bugs.LateBranchRecovery", true, false),
		},
	}
	e := &Engine{
		Workloads: capped(6000, testWorkloads(t, "C-Ca", "C-Cb", "C-S1")),
		Cache:     simcache.New(0),
	}
	ctx := context.Background()
	ref, err := e.Reference(ctx, refConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sensitivity(ctx, e, s, nil, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasRef || res.BaselineErr <= 0 {
		t.Fatalf("no baseline error against reference: %+v", res)
	}
	ax := res.Axes[0]
	if ax.BestValue != "false" {
		t.Errorf("best latebr value = %q, want false (err %.1f%% vs baseline %.1f%%)",
			ax.BestValue, ax.BestErr, res.BaselineErr)
	}
	if ax.BestErr >= res.BaselineErr {
		t.Errorf("fixing the bug did not reduce error: %.2f%% -> %.2f%%",
			res.BaselineErr, ax.BestErr)
	}
}

// The ISSUE's acceptance bar: coordinate descent from SimInitial()
// over the modeling-bug space reduces mean |CPI error| vs the native
// reference on the 21-microbenchmark suite by at least 50%,
// deterministically, and a repeated identical sweep is >= 90% cache
// hits.
func TestCalibrationConvergesFromSimInitial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite coordinate descent is not short")
	}
	s := SimInitialBugSpace()
	cache := simcache.New(8192)
	e := &Engine{
		Workloads: capped(8000, microbench.Suite()),
		Cache:     cache,
	}
	ctx := context.Background()
	ref, err := e.Reference(ctx, refConfig())
	if err != nil {
		t.Fatal(err)
	}

	res, err := Calibrate(ctx, e, s, nil, ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("calibration: %.2f%% -> %.2f%% in %d rounds (%d steps, %d cells, %d hits)\n%s",
		res.StartErr, res.FinalErr, res.Rounds, len(res.Steps),
		res.Stats.Cells, res.Stats.CacheHits, res.Trace())
	if !res.Converged {
		t.Error("descent hit the round bound without converging")
	}
	if res.FinalErr > res.StartErr/2 {
		t.Errorf("error reduced only %.2f%% -> %.2f%%, need >= 50%% reduction",
			res.StartErr, res.FinalErr)
	}
	if len(res.Steps) == 0 {
		t.Fatal("descent accepted no moves")
	}

	// Determinism: an identical descent renders a byte-identical
	// trace — and, sharing the cache, re-pays (almost) nothing.
	res2, err := Calibrate(ctx, e, s, nil, ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace() != res2.Trace() {
		t.Errorf("repeated calibration diverged:\n--- first ---\n%s--- second ---\n%s",
			res.Trace(), res2.Trace())
	}
	if res2.Stats.HitRate() < 0.9 {
		t.Errorf("repeated calibration hit rate %.2f, want >= 0.90", res2.Stats.HitRate())
	}
}

func TestCalibrateRejectsMismatchedReference(t *testing.T) {
	e := testEngine(t)
	_, err := Calibrate(context.Background(), e, tuningSpace(), nil, []core.RunResult{{}}, 0)
	if err == nil {
		t.Error("mismatched reference accepted")
	}
}
