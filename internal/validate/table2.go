// Package validate implements the paper's experiments: it runs
// workload suites across the machine configurations and reproduces
// every table and figure of the evaluation (Table 2 microbenchmark
// validation, the Section 4.2 memory calibration, Table 3
// macrobenchmark validation, Table 4 feature ablation, Table 5
// stability, and the Figure 2 register-file sensitivity study).
package validate

import (
	"fmt"
	"strings"

	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/stats"
)

// Table2Row is one microbenchmark's validation results.
type Table2Row struct {
	Name        string
	NativeIPC   float64
	InitialIPC  float64
	InitialErr  float64 // percent CPI error vs native
	AlphaIPC    float64
	AlphaErr    float64
	OutorderIPC float64
	OutorderErr float64
}

// Table2Result is the full microbenchmark validation table.
type Table2Result struct {
	Rows []Table2Row
	// Mean absolute errors (the paper's bottom row): 74.7% for
	// sim-initial, 2.0% for sim-alpha, 19.5% for sim-outorder.
	MeanInitialErr  float64
	MeanAlphaErr    float64
	MeanOutorderErr float64
}

// Table2 reproduces the microbenchmark validation: each of the 21
// microbenchmarks on the native machine, sim-initial, sim-alpha and
// sim-outorder, with percent CPI errors and their arithmetic means.
// All 4×21 cells run concurrently on the worker pool.
func Table2(opt Options) (Table2Result, error) {
	ws := opt.apply(microbench.Suite())
	grids, err := runGrid(opt, []any{
		model.DefaultNativeConfig(),
		model.SimInitialConfig(),
		model.DefaultAlphaConfig(),
		model.DefaultRUUConfig(),
	}, ws)
	if err != nil {
		return Table2Result{}, err
	}
	nat, initial, valid, outorder := grids[0], grids[1], grids[2], grids[3]

	var out Table2Result
	var ie, ae, oe []float64
	for i, w := range ws {
		nr, ir, ar, or := nat[i], initial[i], valid[i], outorder[i]
		row := Table2Row{
			Name:        w.Name,
			NativeIPC:   nr.IPC(),
			InitialIPC:  ir.IPC(),
			InitialErr:  stats.PctErrorCPI(nr.IPC(), ir.IPC()),
			AlphaIPC:    ar.IPC(),
			AlphaErr:    stats.PctErrorCPI(nr.IPC(), ar.IPC()),
			OutorderIPC: or.IPC(),
			OutorderErr: stats.PctErrorCPI(nr.IPC(), or.IPC()),
		}
		out.Rows = append(out.Rows, row)
		ie = append(ie, row.InitialErr)
		ae = append(ae, row.AlphaErr)
		oe = append(oe, row.OutorderErr)
	}
	out.MeanInitialErr = stats.MeanAbs(ie)
	out.MeanAlphaErr = stats.MeanAbs(ae)
	out.MeanOutorderErr = stats.MeanAbs(oe)
	return out, nil
}

// String renders the table in the paper's layout.
func (t Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Microbenchmark validation\n")
	fmt.Fprintf(&b, "%-7s %8s | %8s %8s | %8s %8s | %8s %8s\n",
		"bench", "native", "initial", "%err", "simalpha", "%err", "outorder", "%diff")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-7s %8.2f | %8.2f %7.1f%% | %8.2f %7.1f%% | %8.2f %7.1f%%\n",
			r.Name, r.NativeIPC, r.InitialIPC, r.InitialErr,
			r.AlphaIPC, r.AlphaErr, r.OutorderIPC, r.OutorderErr)
	}
	fmt.Fprintf(&b, "%-7s %8s | %8s %7.1f%% | %8s %7.1f%% | %8s %7.1f%%\n",
		"mean", "", "", t.MeanInitialErr, "", t.MeanAlphaErr, "", t.MeanOutorderErr)
	return b.String()
}
