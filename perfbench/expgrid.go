package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/macrobench"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/validate"
)

// expGridLimit is the per-cell instruction budget of exp-grid's
// experiments. At this length the ten macro programs' load is most of a
// cell's cost, which is what a cmd/validate user regenerating short
// tables waits on.
const expGridLimit = 15000

// table3Machines are the backends of the table3 grid, in its factory
// order.
var table3Machines = []string{"native-ds10l", "sim-alpha", "sim-stripped", "sim-outorder"}

// expGrid regenerates table3 and then memory per op, through the
// experiment registry, with one caller.
type expGrid struct {
	par            int
	opts           validate.Options
	table3, memory validate.Experiment
	macros         []core.Workload // bounded at expGridLimit
	lengths        []uint64        // instructions each macro retires at the limit
	gridInsts      uint64          // instructions the table3 grid retires per op

	// ref3 and refMem are the first op's rendered outputs; every later
	// op must render the same bytes.
	ref3, refMem string
	alphaMAE     float64
}

func newExpGrid() *expGrid {
	par := runtime.GOMAXPROCS(0)
	return &expGrid{par: par, opts: validate.Options{Limit: expGridLimit, Parallelism: par}}
}

// setup resolves the experiments and the macro catalogue, measures each
// cell's length, and regenerates table3 once so the timed ops start
// with the lazily built workload catalogue in place.
func (g *expGrid) setup() error {
	var ok bool
	if g.table3, ok = validate.ExperimentByName("table3"); !ok {
		return fmt.Errorf("no table3 experiment")
	}
	if g.memory, ok = validate.ExperimentByName("memory"); !ok {
		return fmt.Errorf("no memory experiment")
	}
	g.macros = macrobench.Suite()
	g.lengths = make([]uint64, len(g.macros))
	g.gridInsts = 0
	for i := range g.macros {
		w := &g.macros[i]
		if w.MaxInstructions == 0 || w.MaxInstructions > expGridLimit {
			w.MaxInstructions = expGridLimit
		}
		g.lengths[i] = streamLength(*w)
		g.gridInsts += g.lengths[i] * uint64(len(table3Machines))
	}
	out, err := g.table3.Run(g.opts)
	if err != nil {
		return err
	}
	return g.checkTable3(out)
}

func (g *expGrid) clients() int { return 1 }

func (g *expGrid) checkTable3(out fmt.Stringer) error {
	t3, ok := out.(validate.Table3Result)
	if !ok {
		return fmt.Errorf("table3 returned %T", out)
	}
	text := t3.String()
	if g.ref3 == "" {
		g.ref3, g.alphaMAE = text, t3.AlphaMAE
	} else if text != g.ref3 {
		return fmt.Errorf("table3 output differs from the first op's")
	}
	return nil
}

func (g *expGrid) checkMemory(text string) error {
	if g.refMem == "" {
		g.refMem = text
	} else if text != g.refMem {
		return fmt.Errorf("memory output differs from the first op's")
	}
	return nil
}

func (g *expGrid) op(_, id int, tr *tracer) (uint64, error) {
	if tr != nil {
		return g.tracedOp(id, tr)
	}
	out, err := g.table3.Run(g.opts)
	if err != nil {
		return 0, err
	}
	if err := g.checkTable3(out); err != nil {
		return 0, err
	}
	mem, err := g.memory.Run(g.opts)
	if err != nil {
		return 0, err
	}
	return g.gridInsts, g.checkMemory(mem.String())
}

// tracedOp replays the table3 grid cell by cell through runner.Map with
// a span around every layer call, then runs memory as one span.
func (g *expGrid) tracedOp(id int, tr *tracer) (uint64, error) {
	opSpan := tr.begin("op", -1, id, "exp-grid")
	defer tr.end(opSpan)
	type cell struct{ m, w int }
	cells := make([]cell, 0, len(table3Machines)*len(g.macros))
	for m := range table3Machines {
		for w := range g.macros {
			cells = append(cells, cell{m, w})
		}
	}
	rs := tr.begin("runner.Map", opSpan, id, "table3")
	res, err := runner.Map(g.par, cells, func(_ int, c cell) (core.RunResult, error) {
		return runCell(tr, rs, id, table3Machines[c.m], g.macros[c.w])
	})
	tr.endWork(rs, int64(g.par))
	if err != nil {
		return 0, err
	}
	// The replayed grid must reproduce the experiment: every cell at its
	// length with an exact CPI stack, and the same sim-alpha error.
	var errs []float64
	for i, c := range cells {
		if err := checkCell(res[i], g.lengths[c.w]); err != nil {
			return 0, err
		}
		if table3Machines[c.m] == "sim-alpha" {
			native := res[i-len(g.macros)] // native-ds10l precedes sim-alpha
			errs = append(errs, stats.PctErrorCPI(native.IPC(), res[i].IPC()))
		}
	}
	if mae := stats.MeanAbs(errs); mae != g.alphaMAE {
		return 0, fmt.Errorf("replayed table3 sim-alpha error %.6f%%, experiment %.6f%%", mae, g.alphaMAE)
	}
	ms := tr.begin("validate.memory", opSpan, id, "memory")
	mem, err := g.memory.Run(g.opts)
	tr.end(ms)
	if err != nil {
		return 0, err
	}
	return g.gridInsts, g.checkMemory(mem.String())
}

func (g *expGrid) finish() error { return nil }

func (g *expGrid) cpiErr() float64 { return g.alphaMAE }

func (g *expGrid) ladderSet() []core.Workload { return g.macros }

// layers adds the worker pool's busy fraction and idle time to the
// cell metrics: Σ cell time ÷ (workers × runner.Map wall time).
func (g *expGrid) layers(spans []span, ladder map[string]float64) (map[string]float64, error) {
	out := cellLayers(spans, ladder)
	var wall, busy, maps float64
	for _, s := range spans {
		switch {
		case s.Name == "runner.Map" && s.Op >= 0:
			wall += float64(s.dur()) * float64(s.Work)
			maps++
		case s.Name == "cell" && s.Op >= 0:
			busy += float64(s.dur())
		}
	}
	if wall > 0 {
		out["runner.busy_frac"] = busy / wall
		out["runner.idle_ms"] = (wall - busy) / 1e6 / maps
	}
	return out, nil
}

func (g *expGrid) report(func(string, float64, string, int)) {}

func (g *expGrid) close() {}
