package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/model"
)

// runCell builds the named backend and runs one cell on it. When
// traced, spans cover the cell, model.New, Machine.Run, and the program
// load inside Machine.Run.
func runCell(tr *tracer, parent, op int, machine string, w core.Workload) (core.RunResult, error) {
	cs := tr.begin("cell", parent, op, machine+"/"+w.Name)
	defer tr.end(cs)
	bs := tr.begin("model.New", cs, op, machine)
	m, err := model.New(machine)
	tr.end(bs)
	if err != nil {
		return core.RunResult{}, err
	}
	rs := tr.begin("Machine.Run", cs, op, machine)
	res, err := m.Run(withLoadSpan(tr, rs, op, w))
	tr.endWork(rs, int64(res.Instructions))
	return res, err
}

// withLoadSpan returns the workload with its program load wrapped in a
// cpu.New span under parent. The stream is the one Workload.Source
// would build; only the span is added.
func withLoadSpan(tr *tracer, parent, op int, w core.Workload) core.Workload {
	if tr == nil {
		return w
	}
	prog, name := w.Prog, w.Name
	w.NewSource = func() cpu.Source {
		id := tr.begin("cpu.New", parent, op, name)
		c := cpu.New(prog)
		tr.endWork(id, int64(c.Mem.TouchedPages()))
		return c
	}
	return w
}

// checkCell verifies a full cell: it retired want instructions and its
// CPI stack sums to its cycles.
func checkCell(res core.RunResult, want uint64) error {
	if res.Instructions != want {
		return fmt.Errorf("%s/%s retired %d instructions, want %d", res.Machine, res.Workload, res.Instructions, want)
	}
	if res.Breakdown == nil {
		return fmt.Errorf("%s/%s has no CPI stack", res.Machine, res.Workload)
	}
	if sum := res.Breakdown.Sum(); sum != res.Cycles {
		return fmt.Errorf("%s/%s CPI stack sums to %d, cycles %d", res.Machine, res.Workload, sum, res.Cycles)
	}
	return nil
}

// streamLength returns how many instructions the workload's stream
// delivers (at most its MaxInstructions).
func streamLength(w core.Workload) uint64 {
	return cpu.Skip(w.Source(), ^uint64(0))
}

// timingLayer maps a backend to the timing core it runs on.
var timingLayer = map[string]string{
	"sim-alpha":     "alpha",
	"sim-stripped":  "alpha",
	"native-ds10l":  "native",
	"sim-outorder":  "ruu",
	"sim-inorder":   "inorder",
	"sim-interval":  "interval",
	"sim-alpha-ddr": "alpha_ddr",
}

// cellLayers derives the metrics common to workloads that run cells
// through runCell: model build time, each timing core's self time per
// retired instruction (Machine.Run's self time less the functional step
// at the ladder's measured rate), and the shares of op self time spent
// in program load and in the timing cores.
func cellLayers(spans []span, ladder map[string]float64) map[string]float64 {
	self := selfTimes(spans)
	step := ladder["cpu.step_ns_per_inst"]
	out := make(map[string]float64)
	var total, load, timing, buildNS, builds float64
	coreNS := map[string]float64{}
	coreInsts := map[string]float64{}
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		total += float64(self[i])
		switch s.Name {
		case "cpu.New":
			load += float64(self[i])
		case "model.New":
			buildNS += float64(s.dur())
			builds++
		case "Machine.Run":
			t := float64(self[i]) - step*float64(s.Work)
			timing += t
			if l, ok := timingLayer[s.Tag]; ok {
				coreNS[l] += t
				coreInsts[l] += float64(s.Work)
			}
		}
	}
	if builds > 0 {
		out["model.build_ms"] = buildNS / 1e6 / builds
	}
	for l, ns := range coreNS {
		if coreInsts[l] > 0 {
			out["timing."+l+".ns_per_inst"] = ns / coreInsts[l]
		}
	}
	if total > 0 {
		out["cpu.load_share"] = load / total
		out["timing.share"] = timing / total
	}
	return out
}
