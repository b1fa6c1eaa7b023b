package validate

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/stats"
)

// Figure2Series is one benchmark's bars: the abstract 8-way
// simulator's IPCs (the full bars in the paper's figure) and
// sim-alpha's (the dark lower portions).
type Figure2Series struct {
	Benchmark   string
	AbstractIPC [3]float64
	AlphaIPC    [3]float64
}

// Figure2Result is the register-file sensitivity study.
type Figure2Result struct {
	Series []Figure2Series
	// Harmonic means across benchmarks, per configuration.
	AbstractHMean [3]float64
	AlphaHMean    [3]float64
	// Relative losses vs. the 1-cycle full-bypass baseline, per
	// machine, for the two restricted configurations.
	AbstractLossPct [2]float64
	AlphaLossPct    [2]float64
}

// Figure2 reproduces the register-file sensitivity case study: three
// register-file configurations (1-cycle full bypass, 2-cycle full
// bypass, 2-cycle partial bypass) measured on an abstract 8-way
// simulator (standing in for the in-house simulator of Cruz et al.)
// and on sim-alpha configured 8-wide-balanced. The paper's point: the
// abstract simulator reports much higher absolute IPC and much larger
// losses from the restricted register files, so the two simulators
// support different conclusions about whether hierarchical register
// files are needed.
func Figure2(opt Options) (Figure2Result, error) {
	ws := opt.apply(macrobench.Suite())

	// Six machines (two simulators × three RF configurations) × the
	// macro suite, all cells concurrent on the worker pool.
	var cfgs []any
	for i := 0; i < 3; i++ {
		abstract := model.EightWideRUUConfig()
		applyRF(i, &abstract.RFReadCycles, &abstract.PartialBypass)
		alpha := model.DefaultAlphaConfig()
		applyRF(i, &alpha.RFReadCycles, &alpha.PartialBypass)
		cfgs = append(cfgs, abstract, alpha)
	}
	grids, err := runGrid(opt, cfgs, ws)
	if err != nil {
		return Figure2Result{}, err
	}

	var out Figure2Result
	var abs [3][]core.RunResult
	var alp [3][]core.RunResult
	for i := 0; i < 3; i++ {
		abs[i], alp[i] = grids[2*i], grids[2*i+1]
	}
	for j, w := range ws {
		s := Figure2Series{Benchmark: w.Name}
		for i := 0; i < 3; i++ {
			s.AbstractIPC[i] = abs[i][j].IPC()
			s.AlphaIPC[i] = alp[i][j].IPC()
		}
		out.Series = append(out.Series, s)
	}
	for i := 0; i < 3; i++ {
		out.AbstractHMean[i] = hmeanOf(abs[i])
		out.AlphaHMean[i] = hmeanOf(alp[i])
	}
	for i := 0; i < 2; i++ {
		out.AbstractLossPct[i] = -stats.PctChange(out.AbstractHMean[0], out.AbstractHMean[i+1])
		out.AlphaLossPct[i] = -stats.PctChange(out.AlphaHMean[0], out.AlphaHMean[i+1])
	}
	return out, nil
}

func applyRF(i int, readCycles *int, partial *bool) {
	switch i {
	case 0:
		*readCycles = 1
	case 1:
		*readCycles = 2
	case 2:
		*readCycles = 2
		*partial = true
	}
}

// String renders the figure's data as a table of bar heights.
func (f Figure2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: Register file sensitivity (IPC)\n")
	fmt.Fprintf(&b, "%-8s | %-32s | %-32s\n", "", "abstract 8-way", "sim-alpha")
	fmt.Fprintf(&b, "%-8s | %10s %10s %10s | %10s %10s %10s\n",
		"bench", "1cyc/full", "2cyc/full", "2cyc/part",
		"1cyc/full", "2cyc/full", "2cyc/part")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-8s | %10.2f %10.2f %10.2f | %10.2f %10.2f %10.2f\n",
			s.Benchmark,
			s.AbstractIPC[0], s.AbstractIPC[1], s.AbstractIPC[2],
			s.AlphaIPC[0], s.AlphaIPC[1], s.AlphaIPC[2])
	}
	fmt.Fprintf(&b, "%-8s | %10.2f %10.2f %10.2f | %10.2f %10.2f %10.2f\n",
		"hmean",
		f.AbstractHMean[0], f.AbstractHMean[1], f.AbstractHMean[2],
		f.AlphaHMean[0], f.AlphaHMean[1], f.AlphaHMean[2])
	fmt.Fprintf(&b, "loss vs 1cyc: abstract %.1f%% / %.1f%%, sim-alpha %.1f%% / %.1f%%\n",
		f.AbstractLossPct[0], f.AbstractLossPct[1],
		f.AlphaLossPct[0], f.AlphaLossPct[1])
	return b.String()
}
