package validate

import (
	"fmt"
	"strings"

	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/stats"
)

// Table4Col is one feature-removal configuration's results.
type Table4Col struct {
	Feature   string  // "addr", "eret", ... ("ref" for the baseline)
	HMeanIPC  float64 // harmonic mean across the macrobenchmarks
	MeanPct   float64 // mean per-benchmark % IPC change vs sim-alpha
	StdDevPct float64 // std deviation of those changes
}

// Table4Result is the feature-ablation table.
type Table4Result struct {
	RefIPC float64
	Cols   []Table4Col
}

// Table4 reproduces the effects of individual low-level features on
// performance: sim-alpha versus sim-alpha minus one feature at a
// time, across the macrobenchmark suite. The paper's result: the
// jump adder, load-use speculation, speculative predictor update and
// store-wait bits each contribute more than 4%; removing map-stage
// stalls gains ~2%; the per-benchmark variability (std dev) exceeds
// one percentage point everywhere.
// The grid is (1 + 10 features) machines × the macro suite; every
// cell runs concurrently on the worker pool.
func Table4(opt Options) (Table4Result, error) {
	ws := opt.apply(macrobench.Suite())
	cfgs := []any{model.DefaultAlphaConfig()}
	for _, feat := range model.AlphaFeatures() {
		cfgs = append(cfgs, model.DefaultAlphaConfig().WithoutFeature(feat))
	}
	grids, err := runGrid(opt, cfgs, ws)
	if err != nil {
		return Table4Result{}, err
	}

	ref := grids[0]
	out := Table4Result{RefIPC: hmeanOf(ref)}

	for fi, feat := range model.AlphaFeatures() {
		res := grids[fi+1]
		var changes []float64
		for i, r := range res {
			changes = append(changes, stats.PctChange(ref[i].IPC(), r.IPC()))
		}
		out.Cols = append(out.Cols, Table4Col{
			Feature:   feat,
			HMeanIPC:  hmeanOf(res),
			MeanPct:   stats.Mean(changes),
			StdDevPct: stats.StdDev(changes),
		})
	}
	return out, nil
}

// String renders the table in the paper's layout.
func (t Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Effects of low-level features on performance\n")
	fmt.Fprintf(&b, "%-12s %8s", "", "ref")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, " %8s", c.Feature)
	}
	fmt.Fprintf(&b, "\n%-12s %8.2f", "IPC", t.RefIPC)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, " %8.2f", c.HMeanIPC)
	}
	fmt.Fprintf(&b, "\n%-12s %8s", "% change", "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, " %8.2f", c.MeanPct)
	}
	fmt.Fprintf(&b, "\n%-12s %8s", "std dev", "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, " %8.2f", c.StdDevPct)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}
