package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ddr"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/predict"
)

// The ladder replays a workload's representative streams through each
// low layer's public calls on its own, outside any timed op: program
// load, fast-forward, the functional step, the cache hierarchy, the
// tournament predictor, flat DRAM and the DDR controller. It gives the
// per-unit cost of each layer; the traced ops give each layer's share
// of an op.

// ladderReps is how many times the ladder repeats; each figure it
// reports is the median over the repetitions.
const ladderReps = 3

// dataRef is one data access of a recorded stream.
type dataRef struct {
	addr  uint64
	write bool
}

// branchRef is one conditional branch of a recorded stream.
type branchRef struct {
	pc    uint64
	taken bool
}

// refStream is a cell's reference stream, recorded once and replayed
// through the layers.
type refStream struct {
	insts    uint64
	iLines   []uint64 // fetch addresses, one per change of 64-byte line
	data     []dataRef
	branches []branchRef
}

// record walks the workload's stream functionally and keeps what the
// memory system and the predictor see.
func record(w core.Workload) (refStream, error) {
	var rs refStream
	src := w.Source()
	lastLine := ^uint64(0)
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		rs.insts++
		if line := rec.PC &^ 63; line != lastLine {
			rs.iLines = append(rs.iLines, rec.PC)
			lastLine = line
		}
		cls := rec.Inst.Op.Class()
		if cls.IsMem() {
			rs.data = append(rs.data, dataRef{rec.EA, cls.IsStore()})
		}
		if cls == isa.ClassCondBr {
			rs.branches = append(rs.branches, branchRef{rec.PC, rec.Taken})
		}
	}
	if rs.insts == 0 {
		return rs, fmt.Errorf("ladder: %s produced no instructions", w.Name)
	}
	return rs, nil
}

// ladderTotals accumulates one repetition's work and time per layer.
type ladderTotals struct {
	loads, loadBytes, loadPages     float64
	loadNS                          float64
	ffInsts, ffNS                   float64
	stepInsts, stepNS               float64
	dataAcc, dataNS, dataMiss       float64
	instAcc, instNS                 float64
	branches, branchNS, mispredicts float64
	memAcc, dramNS, ddrNS, rowHits  float64
}

// runLadderOnce makes one pass of the ladder over the workloads.
func runLadderOnce(ws []core.Workload, streams []refStream) (ladderTotals, error) {
	var t ladderTotals
	alphaCfg := model.DefaultAlphaConfig()
	for i, w := range ws {
		n := streams[i].insts

		start := time.Now()
		c := cpu.New(w.Prog)
		t.loadNS += float64(time.Since(start).Nanoseconds())
		t.loads++
		for _, seg := range w.Prog.Segments {
			t.loadBytes += float64(len(seg.Bytes))
		}
		t.loadPages += float64(c.Mem.TouchedPages())

		start = time.Now()
		got := cpu.Skip(c, n)
		t.ffNS += float64(time.Since(start).Nanoseconds())
		t.ffInsts += float64(got)
		if got != n {
			return t, fmt.Errorf("ladder: %s fast-forwarded %d of %d instructions", w.Name, got, n)
		}

		lim := &cpu.Limited{Src: cpu.New(w.Prog), Max: n}
		start = time.Now()
		var stepped uint64
		for {
			if _, ok := lim.Next(); !ok {
				break
			}
			stepped++
		}
		t.stepNS += float64(time.Since(start).Nanoseconds())
		t.stepInsts += float64(stepped)
		if stepped != n {
			return t, fmt.Errorf("ladder: %s stepped %d of %d instructions", w.Name, stepped, n)
		}

		h := cache.NewHierarchy(alphaCfg.Hier, alphaCfg.NewMapper(), dram.New(alphaCfg.DRAM))
		start = time.Now()
		for j, pc := range streams[i].iLines {
			h.Inst(pc, uint64(j))
		}
		t.instNS += float64(time.Since(start).Nanoseconds())
		t.instAcc += float64(len(streams[i].iLines))

		var misses []dataRef
		start = time.Now()
		for j, d := range streams[i].data {
			r := h.Data(d.addr, d.write, uint64(j))
			if !r.L1Hit {
				t.dataMiss++
				if !r.VBHit && !r.L2Hit {
					misses = append(misses, dataRef{r.PAddr, d.write})
				}
			}
		}
		t.dataNS += float64(time.Since(start).Nanoseconds())
		t.dataAcc += float64(len(streams[i].data))

		tour := predict.NewTournament(alphaCfg.Tour)
		start = time.Now()
		for _, b := range streams[i].branches {
			if tour.Predict(b.pc, false) != b.taken {
				t.mispredicts++
			}
			tour.Resolve(b.pc, b.taken)
		}
		t.branchNS += float64(time.Since(start).Nanoseconds())
		t.branches += float64(len(streams[i].branches))

		// The L2-miss stream arrives at memory 40 CPU cycles apart, about
		// the spacing of independent misses in the timed models.
		flat := dram.New(dram.DS10LConfig())
		start = time.Now()
		for j, m := range misses {
			flat.Access(m.addr, m.write, uint64(j)*40)
		}
		t.dramNS += float64(time.Since(start).Nanoseconds())

		ctl := ddr.New(ddr.DS10LDDR())
		start = time.Now()
		for j, m := range misses {
			ctl.Access(m.addr, m.write, uint64(j)*40)
		}
		t.ddrNS += float64(time.Since(start).Nanoseconds())
		t.memAcc += float64(len(misses))
		t.rowHits += float64(ctl.MemStats().RowHits)
	}
	return t, nil
}

// runLadder repeats the ladder and returns the median of each figure.
func runLadder(ws []core.Workload) (map[string]float64, error) {
	streams := make([]refStream, len(ws))
	for i, w := range ws {
		rs, err := record(w)
		if err != nil {
			return nil, err
		}
		streams[i] = rs
	}
	per := make(map[string][]float64)
	for rep := 0; rep < ladderReps; rep++ {
		t, err := runLadderOnce(ws, streams)
		if err != nil {
			return nil, err
		}
		add := func(name string, num, den float64) {
			v := 0.0
			if den > 0 {
				v = num / den
			}
			per[name] = append(per[name], v)
		}
		add("cpu.load_ms", t.loadNS/1e6, t.loads)
		add("cpu.load_bytes", t.loadBytes, t.loads)
		add("cpu.load_pages", t.loadPages, t.loads)
		add("cpu.ff_ns_per_inst", t.ffNS, t.ffInsts)
		add("cpu.step_ns_per_inst", t.stepNS, t.stepInsts)
		add("cache.data_ns_per_access", t.dataNS, t.dataAcc)
		add("cache.inst_ns_per_access", t.instNS, t.instAcc)
		add("cache.l1d_miss_ratio", t.dataMiss, t.dataAcc)
		add("predict.ns_per_branch", t.branchNS, t.branches)
		add("predict.mispredict_ratio", t.mispredicts, t.branches)
		add("dram.ns_per_access", t.dramNS, t.memAcc)
		add("ddr.ns_per_access", t.ddrNS, t.memAcc)
		add("ddr.row_hit_ratio", t.rowHits, t.memAcc)
	}
	out := make(map[string]float64, len(per))
	for k, v := range per {
		out[k] = median(v)
	}
	return out, nil
}
