package validate

import (
	"fmt"
	"strings"

	"repro/internal/events"
	"repro/internal/microbench"
	"repro/internal/model"
)

// BreakdownRow is one workload's CPI stack on one machine: total CPI
// plus the per-component contributions, in canonical component order.
type BreakdownRow struct {
	Workload string
	CPI      float64
	Comp     [events.NumComponents]float64
}

// BreakdownSection is one machine's CPI stacks over the
// microbenchmark suite, with the arithmetic-mean contribution of each
// component as the bottom row.
type BreakdownSection struct {
	Machine string
	Rows    []BreakdownRow
	Mean    [events.NumComponents]float64
	MeanCPI float64
}

// BreakdownResult is the CPI-breakdown study: every machine's cycle
// attribution over the microbenchmark suite.
type BreakdownResult struct {
	Sections []BreakdownSection
}

// Breakdown runs the microbenchmark suite on each machine model and
// decomposes every run's CPI into the events.Component stack the
// unified instrumentation layer attributes. Where the paper's Table 5
// measures feature contributions by ablation (remove a feature,
// compare the means), the stack attributes the cycles of a single run
// to causes directly, so the two views are complementary: a component
// that dominates here is the one whose mismodeling Table 5 shows to
// be expensive.
func Breakdown(opt Options) (BreakdownResult, error) {
	ws := opt.apply(microbench.Suite())
	grids, err := runGrid(opt, []any{
		model.DefaultNativeConfig(),
		model.DefaultAlphaConfig(),
		model.DefaultRUUConfig(),
		model.DefaultInorderConfig(),
	}, ws)
	if err != nil {
		return BreakdownResult{}, err
	}
	names := []string{"native", "sim-alpha", "sim-outorder", "sim-inorder"}

	var out BreakdownResult
	for m, grid := range grids {
		sec := BreakdownSection{Machine: names[m]}
		for i, w := range ws {
			r := grid[i]
			row := BreakdownRow{Workload: w.Name, CPI: r.CPI()}
			for c := events.Component(0); c < events.NumComponents; c++ {
				row.Comp[c] = r.ComponentCPI(c)
			}
			sec.Rows = append(sec.Rows, row)
		}
		for c := events.Component(0); c < events.NumComponents; c++ {
			var sum float64
			for _, row := range sec.Rows {
				sum += row.Comp[c]
			}
			sec.Mean[c] = sum / float64(len(sec.Rows))
			sec.MeanCPI += sec.Mean[c]
		}
		out.Sections = append(out.Sections, sec)
	}
	return out, nil
}

// String renders one block per machine: a row per workload, total CPI
// first, then the component contributions in canonical order.
func (t BreakdownResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPI breakdown: cycles per instruction attributed by component\n")
	for _, sec := range t.Sections {
		fmt.Fprintf(&b, "\nmachine: %s\n", sec.Machine)
		fmt.Fprintf(&b, "%-8s %7s |", "bench", "cpi")
		for _, name := range events.ComponentNames() {
			fmt.Fprintf(&b, " %8s", name)
		}
		fmt.Fprintf(&b, "\n")
		for _, r := range sec.Rows {
			fmt.Fprintf(&b, "%-8s %7.3f |", r.Workload, r.CPI)
			for _, v := range r.Comp {
				fmt.Fprintf(&b, " %8.3f", v)
			}
			fmt.Fprintf(&b, "\n")
		}
		fmt.Fprintf(&b, "%-8s %7.3f |", "mean", sec.MeanCPI)
		for _, v := range sec.Mean {
			fmt.Fprintf(&b, " %8.3f", v)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
