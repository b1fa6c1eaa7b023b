package validate

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/stats"
)

// The stability experiment asks the paper's question across fidelity
// *tiers* instead of simulator configurations: if a study were run on
// the cheap analytical interval model instead of the validated
// detailed simulator, would its conclusions survive? Each candidate
// optimization is applied to both sim-alpha (detailed tier) and
// sim-interval (analytical tier); the experiment reports each tier's
// measured improvement, and — the conclusion that matters — every
// pair of optimizations whose speedup *ranking* flips between tiers.
// An analyst choosing "the best of these options" on the analytical
// tier would choose wrongly exactly at the flip points.

// StabilityOptimizations names the candidate optimizations, in
// report order. Each is applied to both tiers where the tier models
// the touched structure; an optimization invisible to the analytical
// tier (rename registers) is the expected degenerate flip source.
var StabilityOptimizations = []string{
	"3 to 1-cycle L1 D$",
	"64KB to 128KB L1 D$",
	"2MB to 4MB L2",
	"40 to 80 physical regs",
	"longer bpred history",
}

// stabilityAlpha mutates the detailed configuration for one
// optimization.
func stabilityAlpha(opt string) model.AlphaConfig {
	cfg := model.DefaultAlphaConfig()
	switch opt {
	case "":
	case StabilityOptimizations[0]:
		cfg.Hier.L1D.HitLatency = 1
	case StabilityOptimizations[1]:
		cfg.Hier.L1D.SizeBytes = 128 << 10
	case StabilityOptimizations[2]:
		cfg.Hier.L2.SizeBytes *= 2
	case StabilityOptimizations[3]:
		cfg.RenameRegs = 80
	case StabilityOptimizations[4]:
		cfg.Tour.GlobalHistBits += 2
		cfg.Tour.LocalHistBits += 2
	}
	return cfg
}

// stabilityInterval mutates the analytical configuration for the
// same optimization. The rename-register change has no analytical
// counterpart: the interval model cannot see rename pressure at all.
func stabilityInterval(opt string) model.IntervalConfig {
	cfg := model.DefaultIntervalConfig()
	switch opt {
	case "":
	case StabilityOptimizations[0]:
		cfg.Hier.L1D.HitLatency = 1
	case StabilityOptimizations[1]:
		cfg.Hier.L1D.SizeBytes = 128 << 10
	case StabilityOptimizations[2]:
		cfg.Hier.L2.SizeBytes *= 2
	case StabilityOptimizations[3]:
		// invisible to the interval abstraction
	case StabilityOptimizations[4]:
		cfg.BimodalBits += 2
	}
	return cfg
}

// StabilityRow is one optimization's improvement on both tiers.
type StabilityRow struct {
	Optimization string
	Detailed     float64 // % hmean-IPC improvement on sim-alpha
	Analytical   float64 // % hmean-IPC improvement on sim-interval
}

// StabilityFlip is one pair of optimizations whose ranking inverts
// between tiers: the detailed tier prefers A, the analytical tier B.
type StabilityFlip struct {
	Preferred     string  // what the detailed tier ranks higher
	Mispicked     string  // what the analytical tier ranks higher
	DetailedGap   float64 // detailed improvement gap (pp, positive)
	AnalyticalGap float64 // analytical improvement gap (pp, positive)
}

// StabilityAccuracy is one macrobenchmark's baseline CPI on both
// tiers, with the analytical model's CPI error.
type StabilityAccuracy struct {
	Workload      string
	DetailedCPI   float64
	AnalyticalCPI float64
	PctError      float64 // % CPI error of analytical vs detailed
}

// StabilityResult is the cross-tier conclusion-stability report.
type StabilityResult struct {
	Accuracy     []StabilityAccuracy
	MeanAbsError float64 // mean |% CPI error| over the macrobenchmarks
	Rows         []StabilityRow
	Flips        []StabilityFlip
}

// Stability runs the conclusion-stability experiment: the macro suite
// on baseline and optimized variants of the detailed and analytical
// tiers, rankings compared pairwise.
func Stability(opt Options) (StabilityResult, error) {
	ws := opt.apply(macrobench.Suite())

	// Config order: for tier t (0 detailed, 1 analytical) and variant
	// v (0 baseline, then the optimizations), config t*(1+nOpts)+v.
	variants := append([]string{""}, StabilityOptimizations...)
	var cfgs []any
	for _, v := range variants {
		cfgs = append(cfgs, stabilityAlpha(v))
	}
	for _, v := range variants {
		cfgs = append(cfgs, stabilityInterval(v))
	}
	grids, err := runGrid(opt, cfgs, ws)
	if err != nil {
		return StabilityResult{}, err
	}
	det := grids[:len(variants)]
	ana := grids[len(variants):]

	var out StabilityResult

	// Baseline accuracy: how far the analytical CPI sits from the
	// detailed CPI, per macrobenchmark.
	var absSum float64
	for i, w := range ws {
		d, a := det[0][i], ana[0][i]
		e := stats.PctErrorCPI(d.IPC(), a.IPC())
		absSum += math.Abs(e)
		out.Accuracy = append(out.Accuracy, StabilityAccuracy{
			Workload:      w.Name,
			DetailedCPI:   d.CPI(),
			AnalyticalCPI: a.CPI(),
			PctError:      e,
		})
	}
	out.MeanAbsError = absSum / float64(len(ws))

	// Improvements per tier.
	detBase := hmeanOf(det[0])
	anaBase := hmeanOf(ana[0])
	for k, name := range StabilityOptimizations {
		out.Rows = append(out.Rows, StabilityRow{
			Optimization: name,
			Detailed:     stats.PctChange(detBase, hmeanOf(det[1+k])),
			Analytical:   stats.PctChange(anaBase, hmeanOf(ana[1+k])),
		})
	}

	// Ranking flips: every ordered pair the tiers disagree on.
	for i := range out.Rows {
		for j := i + 1; j < len(out.Rows); j++ {
			a, b := out.Rows[i], out.Rows[j]
			if a.Detailed == b.Detailed || a.Analytical == b.Analytical {
				continue
			}
			if (a.Detailed > b.Detailed) == (a.Analytical > b.Analytical) {
				continue
			}
			flip := StabilityFlip{
				Preferred:     a.Optimization,
				Mispicked:     b.Optimization,
				DetailedGap:   math.Abs(a.Detailed - b.Detailed),
				AnalyticalGap: math.Abs(a.Analytical - b.Analytical),
			}
			if b.Detailed > a.Detailed {
				flip.Preferred, flip.Mispicked = b.Optimization, a.Optimization
			}
			out.Flips = append(out.Flips, flip)
		}
	}
	return out, nil
}

// String renders the accuracy table, the per-tier improvements, and
// the ranking flips.
func (r StabilityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Conclusion stability across fidelity tiers (detailed vs analytical)\n\n")

	fmt.Fprintf(&b, "Baseline CPI accuracy (sim-interval vs sim-alpha)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %9s\n", "workload", "detailed", "analytical", "err")
	for _, a := range r.Accuracy {
		fmt.Fprintf(&b, "%-10s %12.3f %12.3f %8.1f%%\n",
			a.Workload, a.DetailedCPI, a.AnalyticalCPI, a.PctError)
	}
	fmt.Fprintf(&b, "%-10s %34.1f%%\n\n", "mean |err|", r.MeanAbsError)

	fmt.Fprintf(&b, "Optimization improvements (%% hmean IPC)\n")
	fmt.Fprintf(&b, "%-24s %10s %11s\n", "optimization", "detailed", "analytical")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %9.2f%% %10.2f%%\n",
			row.Optimization, row.Detailed, row.Analytical)
	}
	fmt.Fprintf(&b, "\n")

	if len(r.Flips) == 0 {
		fmt.Fprintf(&b, "Ranking flips: none (the tiers agree on every pairwise ordering)\n")
	} else {
		fmt.Fprintf(&b, "Ranking flips (the analytical tier picks the wrong side)\n")
		for _, f := range r.Flips {
			fmt.Fprintf(&b, "  detailed prefers %q over %q by %.2fpp; analytical inverts by %.2fpp\n",
				f.Preferred, f.Mispicked, f.DetailedGap, f.AnalyticalGap)
		}
	}
	return b.String()
}
