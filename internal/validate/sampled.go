package validate

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/sample"
	"repro/internal/stats"
)

// SampledRow is one macrobenchmark's full-vs-sampled comparison.
type SampledRow struct {
	Name    string
	FullCPI float64
	// CPI is the sampled estimate with its confidence interval.
	CPI sample.Estimate
	// Top is the largest CPI-stack component's estimate — the
	// per-component intervals surfaced for the dominant term.
	TopName string
	Top     sample.Estimate
	// PctErr is the sampled point estimate's error vs the full run.
	PctErr float64
	// Inside reports whether the full-run CPI falls in the interval.
	Inside bool
	// Speedup is stream instructions per detailed-simulated one.
	Speedup float64
}

// SampledResult is the sampled-simulation validation experiment.
type SampledResult struct {
	Rows []SampledRow
	// Plan is the schedule used (per-workload, from its run limit).
	Plan core.SamplePlan
	// Inside counts rows whose interval covers the full-run CPI.
	Inside int
	// MeanAbsErr is the mean absolute point-estimate error (%).
	MeanAbsErr float64
	// Reduction is the aggregate detailed-instruction reduction.
	Reduction float64
}

// Sampled measures the sampled-simulation subsystem against full
// detail: every macrobenchmark runs twice on sim-alpha — once in
// full, once under systematic interval sampling — and the table
// reports the sampled CPI estimate with its 95% confidence interval
// next to the full-run truth. The experiment's claim is the paper's
// own methodology turned on sampling itself: a 5x cheaper measurement
// is only usable if its error is quantified, and the interval is that
// quantification (the full-run CPI should fall inside it).
func Sampled(opt Options) (SampledResult, error) {
	ws := opt.apply(macrobench.Suite())
	plan := sample.PlanFor(opt.Limit)

	// One sim-alpha grid: every workload in full, then each again under
	// its own plan.
	all := append([]core.Workload(nil), ws...)
	for _, w := range ws {
		p := sample.PlanFor(w.MaxInstructions)
		w.Sample = &p
		all = append(all, w)
	}
	grid, err := runGrid(opt, []any{model.DefaultAlphaConfig()}, all)
	if err != nil {
		return SampledResult{}, err
	}

	out := SampledResult{Plan: plan}
	var absErrs []float64
	var stream, detailed uint64
	for i, w := range ws {
		full, sampled := grid[0][i], grid[0][len(ws)+i]
		est, err := sample.FromResult(sampled, sample.DefaultLevel)
		if err != nil {
			return SampledResult{}, fmt.Errorf("%s: %w", w.Name, err)
		}
		fcpi := full.CPI()
		top := events.CompBase
		for comp := events.Component(0); comp < events.NumComponents; comp++ {
			if est.Components[comp].Mean > est.Components[top].Mean {
				top = comp
			}
		}
		row := SampledRow{
			Name:    w.Name,
			FullCPI: fcpi,
			CPI:     est.CPI,
			TopName: top.Name(),
			Top:     est.Components[top],
			PctErr:  100 * (est.CPI.Mean - fcpi) / fcpi,
			Inside:  est.CPI.Contains(fcpi),
			Speedup: est.Speedup(),
		}
		out.Rows = append(out.Rows, row)
		if row.Inside {
			out.Inside++
		}
		absErrs = append(absErrs, row.PctErr)
		stream += est.StreamInstructions()
		detailed += est.DetailedInstructions()
	}
	out.MeanAbsErr = stats.MeanAbs(absErrs)
	if detailed > 0 {
		out.Reduction = float64(stream) / float64(detailed)
	}
	return out, nil
}

// String renders the comparison table.
func (r SampledResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampled simulation: interval sampling vs full detail (sim-alpha)\n")
	fmt.Fprintf(&b, "plan %s, %d%% confidence\n", r.Plan, int(100*sample.DefaultLevel))
	fmt.Fprintf(&b, "%-8s %8s %19s %3s %7s %6s %6s  %s\n",
		"bench", "full CPI", "sampled CPI (95% CI)", "n", "err%", "in-CI", "detail", "top component")
	for _, row := range r.Rows {
		in := "no"
		if row.Inside {
			in = "yes"
		}
		fmt.Fprintf(&b, "%-8s %8.4f %10.4f ±%7.4f %3d %+7.2f %6s %5.1f%%  %s %.4f ±%.4f\n",
			row.Name, row.FullCPI, row.CPI.Mean, row.CPI.Half, row.CPI.N,
			row.PctErr, in, 100/row.Speedup, row.TopName, row.Top.Mean, row.Top.Half)
	}
	fmt.Fprintf(&b, "inside CI %d/%d, mean |err| %.2f%%, detailed-instruction reduction %.1fx\n",
		r.Inside, len(r.Rows), r.MeanAbsErr, r.Reduction)
	return b.String()
}
