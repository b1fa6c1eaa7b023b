package validate

import (
	"context"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// runGrid executes the full (machine config × workload) grid of an
// experiment on the sweep engine's cell loop and returns one result
// row per config, in config order, each parallel to ws. The engine
// merges by cell index — never by completion order — so the grid is
// deterministic at any parallelism. It has no cache: a grid's cells
// are all distinct, and an uncached cell returns its machine's result
// without a byte round trip.
func runGrid(opt Options, cfgs []any, ws []core.Workload) ([][]core.RunResult, error) {
	eng := &sweep.Engine{Workloads: ws, Parallelism: opt.Parallelism}
	rows, _, err := eng.RunConfigs(context.Background(), cfgs)
	return rows, err
}

// hmeanOf aggregates a result row into a harmonic-mean IPC, in row
// order.
func hmeanOf(row []core.RunResult) float64 {
	ipcs := make([]float64, len(row))
	for i, r := range row {
		ipcs[i] = r.IPC()
	}
	return stats.HarmonicMean(ipcs)
}
