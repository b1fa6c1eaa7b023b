package validate

import (
	"fmt"
	"strings"

	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/stats"
)

// Table3Row is one macrobenchmark's validation results.
type Table3Row struct {
	Name        string
	NativeIPC   float64
	AlphaIPC    float64
	AlphaErr    float64
	StrippedIPC float64
	StrippedErr float64
	OutorderIPC float64
	OutorderErr float64
}

// Table3Result is the macrobenchmark validation table.
type Table3Result struct {
	Rows []Table3Row
	// Aggregates: harmonic-mean IPCs and arithmetic means of
	// absolute errors, as in the paper's "mean" column.
	NativeHMean   float64
	AlphaHMean    float64
	StrippedHMean float64
	OutorderHMean float64
	AlphaMAE      float64
	StrippedMAE   float64
	OutorderMAE   float64
}

// Table3 reproduces the macrobenchmark validation: the ten SPEC2000
// proxies on the native machine, sim-alpha, sim-stripped and
// sim-outorder. The paper's result: sim-alpha ~18% mean error,
// sim-stripped ~-40% (consistent underestimation), sim-outorder
// ~+37% (consistent overestimation).
func Table3(opt Options) (Table3Result, error) {
	ws := opt.apply(macrobench.Suite())
	grids, err := runGrid(opt, []any{
		model.DefaultNativeConfig(),
		model.DefaultAlphaConfig(),
		model.SimStrippedConfig(),
		model.DefaultRUUConfig(),
	}, ws)
	if err != nil {
		return Table3Result{}, err
	}
	nat, al, st, oo := grids[0], grids[1], grids[2], grids[3]

	var out Table3Result
	var nIPC, aIPC, sIPC, oIPC, aErr, sErr, oErr []float64
	for i, w := range ws {
		n, a, s, o := nat[i], al[i], st[i], oo[i]
		row := Table3Row{
			Name:        w.Name,
			NativeIPC:   n.IPC(),
			AlphaIPC:    a.IPC(),
			AlphaErr:    stats.PctErrorCPI(n.IPC(), a.IPC()),
			StrippedIPC: s.IPC(),
			StrippedErr: stats.PctErrorCPI(n.IPC(), s.IPC()),
			OutorderIPC: o.IPC(),
			OutorderErr: stats.PctErrorCPI(n.IPC(), o.IPC()),
		}
		out.Rows = append(out.Rows, row)
		nIPC = append(nIPC, row.NativeIPC)
		aIPC = append(aIPC, row.AlphaIPC)
		sIPC = append(sIPC, row.StrippedIPC)
		oIPC = append(oIPC, row.OutorderIPC)
		aErr = append(aErr, row.AlphaErr)
		sErr = append(sErr, row.StrippedErr)
		oErr = append(oErr, row.OutorderErr)
	}
	out.NativeHMean = stats.HarmonicMean(nIPC)
	out.AlphaHMean = stats.HarmonicMean(aIPC)
	out.StrippedHMean = stats.HarmonicMean(sIPC)
	out.OutorderHMean = stats.HarmonicMean(oIPC)
	out.AlphaMAE = stats.MeanAbs(aErr)
	out.StrippedMAE = stats.MeanAbs(sErr)
	out.OutorderMAE = stats.MeanAbs(oErr)
	return out, nil
}

// String renders the table in the paper's layout (transposed rows).
func (t Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Macrobenchmark validation\n")
	fmt.Fprintf(&b, "%-8s %8s | %8s %8s | %8s %8s | %8s %8s\n",
		"bench", "native", "simalpha", "%err", "stripped", "%diff", "outorder", "%diff")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-8s %8.2f | %8.2f %7.1f%% | %8.2f %7.1f%% | %8.2f %7.1f%%\n",
			r.Name, r.NativeIPC, r.AlphaIPC, r.AlphaErr,
			r.StrippedIPC, r.StrippedErr, r.OutorderIPC, r.OutorderErr)
	}
	fmt.Fprintf(&b, "%-8s %8.2f | %8.2f %7.1f%% | %8.2f %7.1f%% | %8.2f %7.1f%%\n",
		"mean", t.NativeHMean, t.AlphaHMean, t.AlphaMAE,
		t.StrippedHMean, t.StrippedMAE, t.OutorderHMean, t.OutorderMAE)
	return b.String()
}
