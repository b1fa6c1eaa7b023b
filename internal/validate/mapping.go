package validate

import (
	"fmt"
	"strings"

	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/vm"
)

// MappingRow is one benchmark's IPC under the three page-mapping
// policies.
type MappingRow struct {
	Benchmark string
	SeqIPC    float64 // sequential first-touch (the simulator default)
	ColorIPC  float64 // OS page coloring (the native machine's policy)
	HashIPC   float64 // uncontrolled long-running-machine mapping
	SpreadPct float64 // max-min spread as a percentage of the minimum
}

// MappingResult is the page-mapping sensitivity study.
type MappingResult struct {
	Rows      []MappingRow
	MaxSpread float64
}

// mappingConfigs is sim-alpha under the study's three page-mapping
// policies, in column order.
func mappingConfigs() []any {
	var cfgs []any
	for _, m := range []vm.Mapping{
		{Policy: "sequential"},
		{Policy: "page-colored", Colors: (2 << 20) / vm.PageSize},
		{Policy: "hashed", Seed: 12345},
	} {
		cfg := model.DefaultAlphaConfig()
		cfg.Mapping = m
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// MappingStudy is an extension of the paper's Section 4 argument:
// virtual-to-physical page mappings change L2-conflict and DRAM
// behavior in ways a user-level simulator cannot reproduce, so some
// macrobenchmark error is irreducible. The study runs the same
// simulator with three mapping policies and reports the IPC spread —
// error that exists with *no* modeling bugs at all.
func MappingStudy(opt Options) (MappingResult, error) {
	ws := opt.apply(macrobench.Suite())
	// Three mapping policies × the macro suite, every cell concurrent
	// on the worker pool.
	cfgs := mappingConfigs()
	grids, err := runGrid(opt, cfgs, ws)
	if err != nil {
		return MappingResult{}, err
	}

	var out MappingResult
	for j, w := range ws {
		var row MappingRow
		row.Benchmark = w.Name
		ipcs := make([]float64, 3)
		for i := range cfgs {
			ipcs[i] = grids[i][j].IPC()
		}
		row.SeqIPC, row.ColorIPC, row.HashIPC = ipcs[0], ipcs[1], ipcs[2]
		lo, hi := ipcs[0], ipcs[0]
		for _, v := range ipcs[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		row.SpreadPct = stats.PctChange(lo, hi)
		if row.SpreadPct > out.MaxSpread {
			out.MaxSpread = row.SpreadPct
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// String renders the study.
func (m MappingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Page-mapping sensitivity (extension of Section 4)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s\n",
		"bench", "sequential", "colored", "hashed", "spread")
	for _, r := range m.Rows {
		fmt.Fprintf(&b, "%-8s %10.2f %10.2f %10.2f %9.1f%%\n",
			r.Benchmark, r.SeqIPC, r.ColorIPC, r.HashIPC, r.SpreadPct)
	}
	fmt.Fprintf(&b, "max spread from page mapping alone: %.1f%%\n", m.MaxSpread)
	return b.String()
}
