package validate

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/macrobench"
	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/simcache"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// The memory experiment extends the paper's Table 3 sign-pattern
// story down into the memory system. Table 3 shows sim-alpha
// overpredicting CPI on the macrobenchmarks, and Section 4.2's
// calibration only had the flat banked DRAM model's four latencies to
// tune. The cycle-accurate DDR subsystem (internal/ddr) exposes the
// timings the flat model folds away — per-command windows, row-buffer
// policy, scheduler, queue depth — so this experiment asks: does the
// richer model, re-calibrated against the reference machine on the
// Section 4.2 workloads, remove residual macro CPI error? And do the
// controller knobs that matter on the detailed tier still point the
// same way on the cheap analytical tier?

// memoryBound names the macrobenchmarks whose CPI stack is dominated
// by the L2/memory side on the detailed tier (the FP/memory half of
// the macro suite); the headline mean-error comparison is computed
// over this subset, where a memory-model change can matter at all.
var memoryBound = map[string]bool{
	"mesa":   true,
	"art":    true,
	"equake": true,
	"lucas":  true,
}

// ddrSpace is the DDR calibration design space: the command timings
// the flat model folds into its four latencies. Every axis's first
// value is the DS-10L default, so the origin point is the
// uncalibrated sim-alpha-ddr backend. The row-buffer policy and
// scheduler are deliberately NOT descent axes: part of stream's gap
// against the native machine is a page-mapping artifact (Section 6),
// and letting the descent reach for the closed-row policy to imitate
// it destroys the row locality the memory-bound macrobenchmarks
// depend on — exactly the overfitting the paper warns about. The
// policy knobs are explored separately in the tier-stability section.
func ddrSpace() *sweep.Space {
	return &sweep.Space{
		Base: model.SimAlphaDDRConfig(),
		Axes: []sweep.Axis{
			sweep.Ints("tcl", "DDR.TCL", 4, 2, 6),
			sweep.Ints("trcd", "DDR.TRCD", 4, 2, 6),
			sweep.Ints("trp", "DDR.TRP", 2, 1, 4),
			sweep.Ints("burst", "DDR.BurstCycles", 4, 2),
			sweep.Ints("ctl", "DDR.ControllerCycles", 2, 1, 4),
		},
	}
}

// MemoryMicroRow is one calibration workload's CPI on the reference
// machine, flat sim-alpha, and the default (uncalibrated) DDR model.
type MemoryMicroRow struct {
	Workload         string
	NativeCPI        float64
	FlatCPI, FlatErr float64
	DDRCPI, DDRErr   float64
}

// MemoryMacroRow is one macrobenchmark's CPI across the reference
// machine, flat sim-alpha, the default DDR model, and the calibrated
// DDR model, with each simulator's percent CPI error vs the native.
type MemoryMacroRow struct {
	Workload string
	MemBound bool
	Native   float64
	Flat     float64
	FlatErr  float64
	Default  float64
	DefErr   float64
	Cal      float64
	CalErr   float64
}

// MemoryTierRow is one controller variant's harmonic-mean IPC over
// the memory-bound macrobenchmarks on the detailed and analytical
// tiers.
type MemoryTierRow struct {
	Variant    string // "policy/scheduler"
	Detailed   float64
	Analytical float64
}

// MemoryTierFlip is one conclusion the analytical tier gets wrong: on
// one workload, the detailed tier prefers variant A over B while the
// analytical tier strictly prefers B over A.
type MemoryTierFlip struct {
	Workload         string
	Preferred        string // variant the detailed tier ranks faster
	Mispicked        string // variant the analytical tier ranks faster
	DetailedGapPct   float64
	AnalyticalGapPct float64
}

// MemoryResult is the rendered memory-error experiment.
type MemoryResult struct {
	Micro []MemoryMicroRow
	// Cal is the coordinate-descent trace over the DDR timing space
	// against the reference machine on the calibration workloads.
	Cal *sweep.CalibrationResult
	// Calibrated is the DDR configuration the descent converged to.
	Calibrated model.DDRConfig
	Macro      []MemoryMacroRow
	// Mean |percent CPI error| vs native over the memory-bound
	// macrobenchmarks, per simulator.
	FlatMemErr, DefMemErr, CalMemErr float64
	// Tiers compares controller variants (row policy × scheduler, at
	// the calibrated timings) across the detailed and analytical
	// tiers; Flips lists every per-workload pairwise ranking the
	// analytical tier inverts.
	Tiers []MemoryTierRow
	Flips []MemoryTierFlip
}

// tierVariants enumerates the controller policy cross product the
// tier-stability section explores, in rendering order.
func tierVariants() []struct{ policy, sched string } {
	var out []struct{ policy, sched string }
	for _, p := range []string{"open", "closed", "adaptive"} {
		for _, s := range []string{"frfcfs", "fcfs"} {
			out = append(out, struct{ policy, sched string }{p, s})
		}
	}
	return out
}

// Memory runs the memory-error experiment: calibrate the DDR timing
// space against the reference machine on the Section 4.2 workloads,
// then measure flat vs default-DDR vs calibrated-DDR macro CPI error
// side by side, and check which controller conclusions survive the
// drop to the analytical tier.
func Memory(opt Options) (MemoryResult, error) {
	ctx := context.Background()
	var out MemoryResult

	// --- Calibration: coordinate descent over the DDR space against
	// the native reference on M-M, STREAM and lmbench.
	calWS := opt.apply(microbench.Calibration())
	eng := &sweep.Engine{
		Workloads:   calWS,
		Parallelism: opt.Parallelism,
		Cache:       simcache.New(4096),
	}
	ref, err := eng.Reference(ctx, model.DefaultNativeConfig())
	if err != nil {
		return out, err
	}
	space := ddrSpace()
	cal, err := sweep.Calibrate(ctx, eng, space, nil, ref, 0)
	if err != nil {
		return out, err
	}
	out.Cal = cal
	calAny, err := space.Config(cal.Final)
	if err != nil {
		return out, err
	}
	calCfg := calAny.(model.AlphaConfig)
	out.Calibrated = calCfg.DDR

	// --- Microbenchmark table: native vs flat vs default DDR on the
	// calibration workloads (the descent's start point, for context).
	// Native is the descent's reference and default DDR its origin
	// point, already in the engine's cache; only flat is simulated.
	origin, _, err := eng.Run(ctx, space, []sweep.Point{space.Origin()})
	if err != nil {
		return out, err
	}
	flatGrid, err := runGrid(opt, []any{model.DefaultAlphaConfig()}, calWS)
	if err != nil {
		return out, err
	}
	for i, w := range calWS {
		nat, flat, ddr := ref[i], flatGrid[0][i], origin[0].Results[i]
		out.Micro = append(out.Micro, MemoryMicroRow{
			Workload:  w.Name,
			NativeCPI: nat.CPI(),
			FlatCPI:   flat.CPI(),
			FlatErr:   stats.PctErrorCPI(nat.IPC(), flat.IPC()),
			DDRCPI:    ddr.CPI(),
			DDRErr:    stats.PctErrorCPI(nat.IPC(), ddr.IPC()),
		})
	}

	// --- Macro table: the full macro suite on native, flat sim-alpha,
	// default DDR, and calibrated DDR.
	macroWS := opt.apply(macrobench.Suite())
	macroGrids, err := runGrid(opt, []any{
		model.DefaultNativeConfig(),
		model.DefaultAlphaConfig(),
		model.SimAlphaDDRConfig(),
		calCfg,
	}, macroWS)
	if err != nil {
		return out, err
	}
	var flatErrs, defErrs, calErrs []float64
	for i, w := range macroWS {
		nat := macroGrids[0][i]
		flat := macroGrids[1][i]
		def := macroGrids[2][i]
		calR := macroGrids[3][i]
		row := MemoryMacroRow{
			Workload: w.Name,
			MemBound: memoryBound[w.Name],
			Native:   nat.CPI(),
			Flat:     flat.CPI(),
			FlatErr:  stats.PctErrorCPI(nat.IPC(), flat.IPC()),
			Default:  def.CPI(),
			DefErr:   stats.PctErrorCPI(nat.IPC(), def.IPC()),
			Cal:      calR.CPI(),
			CalErr:   stats.PctErrorCPI(nat.IPC(), calR.IPC()),
		}
		out.Macro = append(out.Macro, row)
		if row.MemBound {
			flatErrs = append(flatErrs, row.FlatErr)
			defErrs = append(defErrs, row.DefErr)
			calErrs = append(calErrs, row.CalErr)
		}
	}
	out.FlatMemErr = stats.MeanAbs(flatErrs)
	out.DefMemErr = stats.MeanAbs(defErrs)
	out.CalMemErr = stats.MeanAbs(calErrs)

	// --- Tier stability: the row-policy × scheduler cross product at
	// the calibrated timings, on the detailed and analytical tiers.
	variants := tierVariants()
	var tierCfgs []any
	for _, v := range variants {
		ac := calCfg
		ac.DDR.RowPolicy, ac.DDR.Scheduler = v.policy, v.sched
		tierCfgs = append(tierCfgs, ac)
	}
	for _, v := range variants {
		ic := model.SimIntervalDDRConfig()
		ic.DDR = out.Calibrated
		ic.DDR.RowPolicy, ic.DDR.Scheduler = v.policy, v.sched
		tierCfgs = append(tierCfgs, ic)
	}
	memWS := make([]core.Workload, 0, len(macroWS))
	for _, w := range macroWS {
		if memoryBound[w.Name] {
			memWS = append(memWS, w)
		}
	}
	tierGrids, err := runGrid(opt, tierCfgs, memWS)
	if err != nil {
		return out, err
	}
	det := tierGrids[:len(variants)]
	ana := tierGrids[len(variants):]
	for i, v := range variants {
		out.Tiers = append(out.Tiers, MemoryTierRow{
			Variant:    v.policy + "/" + v.sched,
			Detailed:   hmeanOf(det[i]),
			Analytical: hmeanOf(ana[i]),
		})
	}

	// Per-workload pairwise ranking flips: the detailed tier strictly
	// prefers one variant, the analytical tier strictly the other.
	for k, w := range memWS {
		for i := range variants {
			for j := i + 1; j < len(variants); j++ {
				di, dj := det[i][k].CPI(), det[j][k].CPI()
				ai, aj := ana[i][k].CPI(), ana[j][k].CPI()
				if di == dj || ai == aj {
					continue
				}
				if (di < dj) == (ai < aj) {
					continue
				}
				flip := MemoryTierFlip{
					Workload:         w.Name,
					Preferred:        out.Tiers[i].Variant,
					Mispicked:        out.Tiers[j].Variant,
					DetailedGapPct:   math.Abs(stats.PctChange(di, dj)),
					AnalyticalGapPct: math.Abs(stats.PctChange(ai, aj)),
				}
				if dj < di {
					flip.Preferred, flip.Mispicked = out.Tiers[j].Variant, out.Tiers[i].Variant
				}
				out.Flips = append(out.Flips, flip)
			}
		}
	}
	return out, nil
}

// String renders the calibration trace, both error tables, and the
// tier-stability section.
func (r MemoryResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Memory-system error: flat DRAM vs cycle-accurate DDR\n\n")

	fmt.Fprintf(&b, "Calibration workloads (CPI, %% err vs native)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %7s %8s %7s\n",
		"workload", "native", "flat", "err", "ddr", "err")
	for _, m := range r.Micro {
		fmt.Fprintf(&b, "%-10s %8.3f %8.3f %6.1f%% %8.3f %6.1f%%\n",
			m.Workload, m.NativeCPI, m.FlatCPI, m.FlatErr, m.DDRCPI, m.DDRErr)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "DDR calibration: coordinate descent vs native reference\n")
	b.WriteString(r.Cal.Trace())
	fmt.Fprintf(&b, "calibrated: %s\n\n", describeDDR(r.Calibrated))

	fmt.Fprintf(&b, "Macrobenchmarks (CPI, %% err vs native; * = memory-bound)\n")
	fmt.Fprintf(&b, "%-8s %8s %8s %7s %8s %7s %8s %7s\n",
		"bench", "native", "flat", "err", "ddr-def", "err", "ddr-cal", "err")
	for _, m := range r.Macro {
		mark := " "
		if m.MemBound {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-7s%s %8.3f %8.3f %6.1f%% %8.3f %6.1f%% %8.3f %6.1f%%\n",
			m.Workload, mark, m.Native, m.Flat, m.FlatErr, m.Default, m.DefErr, m.Cal, m.CalErr)
	}
	fmt.Fprintf(&b, "mean |err|, memory-bound: flat %.1f%%, ddr-default %.1f%%, ddr-calibrated %.1f%%\n\n",
		r.FlatMemErr, r.DefMemErr, r.CalMemErr)

	fmt.Fprintf(&b, "Controller conclusions across tiers (hmean IPC, memory-bound suite)\n")
	fmt.Fprintf(&b, "%-18s %10s %11s\n", "variant", "detailed", "analytical")
	for _, t := range r.Tiers {
		fmt.Fprintf(&b, "%-18s %10.4f %11.4f\n", t.Variant, t.Detailed, t.Analytical)
	}
	if len(r.Flips) == 0 {
		fmt.Fprintf(&b, "ranking flips: none (the tiers agree on every pairwise ordering)\n")
	} else {
		fmt.Fprintf(&b, "ranking flips (the analytical tier picks the wrong controller)\n")
		for _, f := range r.Flips {
			fmt.Fprintf(&b, "  %-8s detailed prefers %-16s over %-16s by %.2f%%; analytical inverts by %.2f%%\n",
				f.Workload, f.Preferred, f.Mispicked, f.DetailedGapPct, f.AnalyticalGapPct)
		}
	}
	return b.String()
}

// describeDDR renders the calibrated timing compactly.
func describeDDR(c model.DDRConfig) string {
	return fmt.Sprintf("tCL=%d tRCD=%d tRP=%d burst=%d ctl=%d policy=%s sched=%s",
		c.TCL, c.TRCD, c.TRP, c.BurstCycles, c.ControllerCycles, c.RowPolicy, c.Scheduler)
}
