package validate

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/simcache"
	"repro/internal/sweep"
)

// tuningAxes is the design space the sweep experiment explores: the
// microarchitectural knobs the paper's sensitivity discussion keeps
// returning to, each with the validated sim-alpha value first so the
// one-factor-at-a-time baseline is sim-alpha itself.
func tuningAxes() []sweep.Axis {
	return []sweep.Axis{
		sweep.Ints("rob", "ROB", 80, 32),
		sweep.Ints("issue", "IntIssueWidth", 4, 2),
		sweep.Ints("renames", "RenameRegs", 40, 12),
		sweep.Ints("l2lat", "Hier.L2.HitLatency", 13, 26),
		sweep.Ints("cas", "DRAM.CASCycles", 4, 12),
		sweep.Ints("ghist", "Tour.GlobalHistBits", 12, 2),
		sweep.Bools("openpage", "DRAM.OpenPage", true, false),
	}
}

// sweepEngine assembles the exploration engine all sweep-family
// experiments share: the 21-microbenchmark suite under the options'
// budget, a fresh result cache, and the experiment's worker pool.
func sweepEngine(opt Options) *sweep.Engine {
	return &sweep.Engine{
		Workloads:   opt.apply(microbench.Suite()),
		Parallelism: opt.Parallelism,
		Cache:       simcache.New(8192),
	}
}

// SweepResult is the rendered design-space sensitivity experiment.
type SweepResult struct {
	Sens *sweep.SensitivityResult
}

// Sweep runs the one-factor-at-a-time sensitivity analysis around
// sim-alpha against the native reference: every tuning axis is moved
// alone, its CPI impact and CPI-stack shift are measured across the
// 21 microbenchmarks, and the axes are ranked — the generalization of
// the paper's "which feature explains the error" single-feature
// attribution to arbitrary configuration knobs.
func Sweep(opt Options) (SweepResult, error) {
	eng := sweepEngine(opt)
	space := &sweep.Space{Base: model.DefaultAlphaConfig(), Axes: tuningAxes()}
	ctx := context.Background()
	ref, err := eng.Reference(ctx, model.DefaultNativeConfig())
	if err != nil {
		return SweepResult{}, err
	}
	sens, err := sweep.Sensitivity(ctx, eng, space, nil, ref)
	if err != nil {
		return SweepResult{}, err
	}
	return SweepResult{Sens: sens}, nil
}

// String renders the ranked sensitivity table.
func (r SweepResult) String() string {
	s := r.Sens
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep: per-axis CPI sensitivity, one factor at a time\n")
	fmt.Fprintf(&b, "base sim-alpha [%s]\n", s.BaselineLabel)
	fmt.Fprintf(&b, "reference native-ds10l, baseline mean |CPI err| = %.2f%%\n", s.BaselineErr)
	fmt.Fprintf(&b, "%-9s %-7s %10s %11s %10s  %s\n",
		"axis", "value", "mean dCPI%", "mean|dCPI|%", "err-vs-ref", "top component")
	for _, ax := range s.Axes {
		for _, v := range ax.Values {
			comp := "-"
			if v.TopComponent != "" {
				comp = fmt.Sprintf("%s %+0.3f", v.TopComponent, v.TopComponentDelta)
			}
			fmt.Fprintf(&b, "%-9s %-7s %+10.2f %11.2f %9.2f%%  %s\n",
				ax.Axis, v.Label, v.MeanPctDelta, v.MeanAbsPctDelta, v.ErrVsRef, comp)
		}
	}
	fmt.Fprintf(&b, "ranking (mean |dCPI|%%):")
	for i, ax := range s.Axes {
		if i > 0 {
			b.WriteString(" >")
		}
		fmt.Fprintf(&b, " %s", ax.Axis)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "points %d, cells %d, cache hits %d\n",
		s.Stats.Points, s.Stats.Cells, s.Stats.CacheHits)
	return b.String()
}

// AutoCalResult is the rendered auto-calibration experiment.
type AutoCalResult struct {
	Cal *sweep.CalibrationResult
}

// Calibration replays the paper's Section 3.4 journey mechanically:
// coordinate descent over the sim-initial modeling-bug space,
// minimizing mean |CPI error| against the native reference across the
// 21 microbenchmarks, reported as a convergence trace. Bugs whose
// "fix" would move the model away from the reference (the native
// machine's own coarse trap granularity, for example) stay enabled —
// exactly the paper's observation that validation is against a real
// machine, not an idealized one.
func Calibration(opt Options) (AutoCalResult, error) {
	eng := sweepEngine(opt)
	space := sweep.SimInitialBugSpace()
	ctx := context.Background()
	ref, err := eng.Reference(ctx, model.DefaultNativeConfig())
	if err != nil {
		return AutoCalResult{}, err
	}
	cal, err := sweep.Calibrate(ctx, eng, space, nil, ref, 0)
	if err != nil {
		return AutoCalResult{}, err
	}
	return AutoCalResult{Cal: cal}, nil
}

// String renders the convergence trace with its cache accounting.
func (r AutoCalResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Calibration: coordinate descent, sim-initial -> native reference\n")
	b.WriteString(r.Cal.Trace())
	fmt.Fprintf(&b, "points %d, cells %d, cache hits %d\n",
		r.Cal.Stats.Points, r.Cal.Stats.Cells, r.Cal.Stats.CacheHits)
	return b.String()
}
