package validate

import (
	"repro/internal/core"
)

// Options tunes experiment cost and execution. The zero value runs
// everything at full length on all cores.
type Options struct {
	// Limit caps dynamic instructions per run (0 = workload length).
	// Benches and tests use it to keep regeneration fast. A short
	// budget is an operating point of its own, not a preview of full
	// length: at 15,000 instructions Table 3 puts sim-alpha's mean
	// |err| at 21.1% and its gcc error at -25.3% (sim-outorder's gcc:
	// -5.2%), where results_full.txt has 13.1%, +11.1% and +41.2%.
	// See the ROADMAP's reproduction-error item.
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
