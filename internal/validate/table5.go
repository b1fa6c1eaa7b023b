package validate

import (
	"fmt"
	"strings"

	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/stats"
)

// Optimization names, in the paper's row order.
var Table5Optimizations = []string{
	"3 to 1-cycle L1 D$",
	"64KB to 128KB L1 D$",
	"40 to 80 physical regs",
}

// Table5Cell is one (optimization, configuration) improvement.
type Table5Cell struct {
	Config      string
	Improvement float64 // % improvement in harmonic-mean IPC
}

// Table5Result is the stability matrix: improvements of each
// optimization across the simulator configurations.
type Table5Result struct {
	Configs []string // column order
	// Cells[opt][config index]
	Cells [][]Table5Cell
}

// table5Machine pairs a configuration name with its baseline and
// optimized variant configs.
type table5Machine struct {
	name    string
	variant func(opt string) any
}

func alphaVariant(base model.AlphaConfig) func(opt string) any {
	return func(opt string) any {
		cfg := base
		switch opt {
		case "":
		case Table5Optimizations[0]:
			cfg.Hier.L1D.HitLatency = 1
		case Table5Optimizations[1]:
			cfg.Hier.L1D.SizeBytes = 128 << 10
		case Table5Optimizations[2]:
			cfg.RenameRegs = 80
		}
		return cfg
	}
}

func ruuVariant(base model.RUUConfig) func(opt string) any {
	return func(opt string) any {
		cfg := base
		switch opt {
		case "":
		case Table5Optimizations[0]:
			cfg.Hier.L1D.HitLatency = 1
		case Table5Optimizations[1]:
			cfg.Hier.L1D.SizeBytes = 128 << 10
		case Table5Optimizations[2]:
			cfg.RenameRegs = 80
		}
		return cfg
	}
}

// Table5 reproduces the stability study: three microarchitectural
// optimizations evaluated on thirteen simulator configurations
// (sim-alpha, sim-alpha minus each of the ten features,
// sim-stripped, and the modified sim-outorder). The paper's finding:
// the eleven sim-alpha configurations agree within about a point,
// sim-stripped benefits nearly twice as much from the latency
// reduction, and sim-outorder benefits least.
func Table5(opt Options) (Table5Result, error) {
	ws := opt.apply(macrobench.Suite())

	machines := []table5Machine{{"sim-alpha", alphaVariant(model.DefaultAlphaConfig())}}
	for _, feat := range model.AlphaFeatures() {
		machines = append(machines, table5Machine{
			name:    feat,
			variant: alphaVariant(model.DefaultAlphaConfig().WithoutFeature(feat)),
		})
	}
	machines = append(machines,
		table5Machine{"sim-strip", alphaVariant(model.SimStrippedConfig())},
		table5Machine{"sim-out", ruuVariant(model.DefaultRUUConfig())},
	)

	// Flatten the (configuration × variant) plane into one grid: for
	// configuration i, config i*(1+nOpts) is its baseline and config
	// i*(1+nOpts)+1+k its k-th optimization. Every (variant ×
	// workload) cell then runs concurrently on the worker pool.
	variants := append([]string{""}, Table5Optimizations...)
	var cfgs []any
	for _, m := range machines {
		for _, v := range variants {
			cfgs = append(cfgs, m.variant(v))
		}
	}
	grids, err := runGrid(opt, cfgs, ws)
	if err != nil {
		return Table5Result{}, err
	}

	var out Table5Result
	for _, m := range machines {
		out.Configs = append(out.Configs, m.name)
	}
	base := make([]float64, len(machines))
	for i := range machines {
		base[i] = hmeanOf(grids[i*len(variants)])
	}
	for k := range Table5Optimizations {
		row := make([]Table5Cell, len(machines))
		for i, m := range machines {
			res := grids[i*len(variants)+1+k]
			row[i] = Table5Cell{
				Config:      m.name,
				Improvement: stats.PctChange(base[i], hmeanOf(res)),
			}
		}
		out.Cells = append(out.Cells, row)
	}
	return out, nil
}

// String renders the stability matrix.
func (t Table5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Simulator stability (%% improvement)\n")
	fmt.Fprintf(&b, "%-24s", "optimization")
	for _, c := range t.Configs {
		fmt.Fprintf(&b, " %9s", c)
	}
	fmt.Fprintf(&b, "\n")
	for i, optName := range Table5Optimizations {
		fmt.Fprintf(&b, "%-24s", optName)
		for _, cell := range t.Cells[i] {
			fmt.Fprintf(&b, " %8.2f%%", cell.Improvement)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
