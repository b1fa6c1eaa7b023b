package validate

import (
	"context"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// runGrid executes the full (machine config × workload) grid of an
// experiment on the sweep engine's cell loop and returns one
// workload-name-keyed result map per config, in config order. The
// engine merges by cell index — never by completion order — so the
// grid is deterministic at any parallelism. It has no cache: a grid's
// cells are all distinct, and an uncached cell returns its machine's
// result without a byte round trip.
func runGrid(opt Options, cfgs []any, ws []core.Workload) ([]map[string]core.RunResult, error) {
	eng := &sweep.Engine{Workloads: ws, Parallelism: opt.Parallelism}
	rows, _, err := eng.RunConfigs(context.Background(), cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]map[string]core.RunResult, len(rows))
	for i, row := range rows {
		out[i] = make(map[string]core.RunResult, len(ws))
		for j, w := range ws {
			out[i][w.Name] = row[j]
		}
	}
	return out, nil
}

// hmeanOf aggregates a result map into a harmonic-mean IPC over the
// workloads, in workload order.
func hmeanOf(res map[string]core.RunResult, ws []core.Workload) float64 {
	var ipcs []float64
	for _, w := range ws {
		ipcs = append(ipcs, res[w.Name].IPC())
	}
	return stats.HarmonicMean(ipcs)
}
