package validate

import (
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/stats"
)

// MemCalPoint is one memory-system parameter configuration and its
// error against the native machine on the calibration workloads.
type MemCalPoint struct {
	RAS, CAS, Precharge, Controller int
	OpenPage                        bool
	// Errors on M-M, stream, lmbench (percent difference in
	// execution time), and their mean magnitude.
	Errs    [3]float64
	MeanAbs float64
}

// Config renders the point's parameters compactly.
func (p MemCalPoint) Config() string {
	policy := "closed"
	if p.OpenPage {
		policy = "open"
	}
	return fmt.Sprintf("%s RAS=%d CAS=%d pre=%d ctl=%d",
		policy, p.RAS, p.CAS, p.Precharge, p.Controller)
}

// MemCalResult is the Section 4.2 parameter sweep.
type MemCalResult struct {
	Points []MemCalPoint
	Best   MemCalPoint
}

// MemoryCalibration reproduces the Section 4.2 study: sweep the DRAM
// RAS, CAS, precharge and controller latencies and the page policy,
// measure M-M, STREAM and lmbench on each configuration, and select
// the one minimizing error against the native machine. The paper's
// winner: open page, RAS 2, CAS 4, precharge 2, 2 controller cycles.
func MemoryCalibration(opt Options) (MemCalResult, error) {
	ws := opt.apply(microbench.Calibration())

	// Enumerate the sweep in its canonical order, then run the
	// reference machine plus every swept configuration as one
	// (1+48) × 3 grid on the worker pool.
	var points []MemCalPoint
	for _, open := range []bool{true, false} {
		for _, ras := range []int{2, 4} {
			for _, cas := range []int{2, 4, 6} {
				for _, pre := range []int{2, 4} {
					for _, ctl := range []int{1, 2} {
						points = append(points, MemCalPoint{
							RAS: ras, CAS: cas, Precharge: pre,
							Controller: ctl, OpenPage: open,
						})
					}
				}
			}
		}
	}
	cfgs := []any{model.DefaultNativeConfig()}
	for _, pt := range points {
		cfg := model.DefaultAlphaConfig()
		cfg.DRAM.OpenPage = pt.OpenPage
		cfg.DRAM.RASCycles = pt.RAS
		cfg.DRAM.CASCycles = pt.CAS
		cfg.DRAM.PrechargeCycles = pt.Precharge
		cfg.DRAM.ControllerCycles = pt.Controller
		cfgs = append(cfgs, cfg)
	}
	grids, err := runGrid(opt, cfgs, ws)
	if err != nil {
		return MemCalResult{}, err
	}

	var out MemCalResult
	for pi, pt := range points {
		res := grids[pi+1]
		var errs []float64
		for i := range ws {
			// Percent difference in execution time.
			nat := float64(grids[0][i].Cycles)
			e := (float64(res[i].Cycles) - nat) / nat * 100
			pt.Errs[i] = e
			errs = append(errs, e)
		}
		pt.MeanAbs = stats.MeanAbs(errs)
		out.Points = append(out.Points, pt)
	}
	out.Best = out.Points[0]
	for _, p := range out.Points[1:] {
		if p.MeanAbs < out.Best.MeanAbs {
			out.Best = p
		}
	}
	return out, nil
}

// PaperConfig reports whether the point matches the paper's selected
// parameters (open page, RAS 2, CAS 4, precharge 2, controller 2).
func (p MemCalPoint) PaperConfig() bool {
	ref := dram.DS10LConfig()
	return p.OpenPage == ref.OpenPage && p.RAS == ref.RASCycles &&
		p.CAS == ref.CASCycles && p.Precharge == ref.PrechargeCycles &&
		p.Controller == ref.ControllerCycles
}

// String renders the sweep summary: the best few points and the
// paper's configuration.
func (m MemCalResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Memory calibration (Section 4.2): %d configurations\n", len(m.Points))
	fmt.Fprintf(&b, "%-32s %8s %8s %8s %8s\n", "config", "M-M", "stream", "lmbench", "mean")
	for _, p := range m.Points {
		marker := " "
		if p.Config() == m.Best.Config() {
			marker = "*"
		}
		if p.PaperConfig() {
			marker += " (paper)"
		}
		if marker != " " {
			fmt.Fprintf(&b, "%-32s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %s\n",
				p.Config(), p.Errs[0], p.Errs[1], p.Errs[2], p.MeanAbs, marker)
		}
	}
	fmt.Fprintf(&b, "best: %s (mean |err| %.1f%%)\n", m.Best.Config(), m.Best.MeanAbs)
	return b.String()
}
