package validate

import (
	"repro/internal/core"
)

// Options tunes experiment cost and execution. The zero value runs
// everything at full length on all cores.
type Options struct {
	// Limit caps dynamic instructions per run (0 = workload length).
	// Benches use it to keep regeneration fast; shapes are stable
	// well below full length.
	Limit uint64

	// Parallelism is the number of workers the experiment fans its
	// independent (machine × workload) simulation cells across
	// (0 = GOMAXPROCS). Results are merged by cell, never by
	// completion order, so rendered output is byte-identical at every
	// setting.
	Parallelism int
}

func (o Options) apply(ws []core.Workload) []core.Workload {
	if o.Limit == 0 {
		return ws
	}
	out := make([]core.Workload, len(ws))
	for i, w := range ws {
		out[i] = w.Capped(o.Limit)
	}
	return out
}
