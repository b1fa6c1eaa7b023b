package alpha

import (
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/isa"
)

// unopsThroughIssue reports whether unops consume issue slots: either
// the sim-initial bug, or the eret feature being removed.
func (s *sim) unopsThroughIssue() bool {
	return s.cfg.Bugs.UnopsConsumeIssue || !s.cfg.Feat.EarlyRetire
}

// fetch models the 21264 front end for one cycle: octaword-aligned
// fetch through the I-cache, way prediction, the line predictor, the
// tournament predictor with the slot-stage adder override, the return
// address stack, and all the recovery penalties the paper calibrates.
// The packet is carved out of the lookahead ring in place — the
// steady-state path performs no heap allocation.
func (s *sim) fetch() {
	if s.waitBranch != 0 || s.cycle < s.fetchBlockedUntil {
		return
	}
	s.ahead.Fill(s.src)
	if s.ahead.Len() == 0 {
		return
	}
	// Room for a full packet in the combined fetch/reorder window.
	if s.count+s.cfg.FetchWidth > len(s.rob) {
		return
	}

	// Build the aligned fetch packet: consecutive sequential records
	// within one octaword, ending at the first taken branch. The
	// packet is the first n lookahead records.
	first := s.ahead.At(0)
	base := first.PC &^ 15
	n := 1
	for n < s.cfg.FetchWidth && n < s.ahead.Len() {
		prev := s.ahead.At(n - 1)
		next := s.ahead.At(n)
		if prev.IsBranch() && prev.Taken {
			break
		}
		if next.PC != prev.PC+isa.WordBytes || next.PC&^15 != base {
			break
		}
		n++
	}

	// I-cache access (with way prediction) for the packet address.
	ires, set, actualWay := s.hier.Inst(first.PC, s.cycle)
	deliverAt := s.cycle + 1
	nextFetchAt := s.cycle + 1
	// fetchWhy is the CPI-stack component charged for the gap until the
	// next fetch; refined below as penalties accumulate.
	fetchWhy := events.CompFrontend
	if !ires.L1Hit {
		s.col.Count(events.ICacheMisses, 1)
		fetchWhy = events.CompICache
		miss := uint64(ires.Latency)
		if ires.TLBMiss {
			w := uint64(ires.WalkCycles)
			if s.cfg.Extra.PALTLBMiss {
				w += uint64(s.cfg.PALOverhead)
			}
			miss += w
			s.col.Count(events.TLBMisses, 1)
		}
		deliverAt += miss
		nextFetchAt += miss
		if s.cfg.Feat.IPrefetch {
			for i := 1; i <= 4; i++ {
				s.hier.PrefetchInst(first.PC+uint64(i*s.cfg.Hier.L1I.BlockBytes), s.cycle)
			}
		}
	} else {
		predWay := s.way.Predict(set)
		if predWay != actualWay {
			s.col.Count(events.WayMispredicts, 1)
			fetchWhy = events.CompICache
			bubble := uint64(s.cfg.WayMispredict)
			if s.cfg.Bugs.ExtraWayPredCycle {
				bubble++
			}
			deliverAt += bubble
			nextFetchAt += bubble
		}
	}
	s.way.Train(set, actualWay)

	// Direction predictions for conditional branches in the packet.
	// The first mispredicted branch stalls fetch until it resolves.
	specHist := s.cfg.Feat.SpecUpdate && !s.cfg.Bugs.NoSpecUpdate
	var mispredictIdx = -1
	for i := 0; i < n; i++ {
		rec := s.ahead.At(i)
		if rec.Inst.Op.Class() != isa.ClassCondBr {
			continue
		}
		pred := s.tour.Predict(rec.PC, specHist)
		if specHist {
			s.tour.ShiftSpec(pred)
		}
		if pred != rec.Taken && mispredictIdx < 0 {
			mispredictIdx = i
		}
	}

	last := s.ahead.At(n - 1)
	actualNext := last.NextPC
	if !(last.IsBranch() && last.Taken) {
		actualNext = last.PC + isa.WordBytes
	}
	linePred := s.line.Predict(first.PC)

	// RAS maintenance at fetch (speculative update); with
	// non-speculative update a return consults a stale stack whenever
	// any RAS operation is still unresolved.
	rasStale := false
	for i := 0; i < n; i++ {
		switch s.ahead.At(i).Inst.Op {
		case isa.OpBsr, isa.OpJsr:
			s.ras.Push(s.ahead.At(i).PC + isa.WordBytes)
		case isa.OpRet:
			if s.inflightRASOps > 0 && !specHist {
				rasStale = true
			}
		}
	}

	var bubble uint64
	switch {
	case mispredictIdx >= 0:
		// Direction misprediction: fetch stalls until the branch
		// resolves; recovery (and speculative-history repair) happens
		// at resolution.
		s.col.Count(events.BrMispredicts, 1)
	case last.IsBranch() && last.Taken:
		switch last.Inst.Op.Class() {
		case isa.ClassJump:
			predTarget := linePred
			if last.Inst.Op == isa.OpRet {
				if top, ok := s.ras.Pop(); ok && !rasStale {
					predTarget = top
				} else {
					predTarget = linePred
				}
			}
			if predTarget != actualNext {
				// The target is only known when the jump executes (it
				// comes through a register): fetch stalls until then,
				// and the restart costs the 10-cycle flush the paper
				// measured with C-S1. sim-initial undercharged it.
				s.col.Count(events.JmpMispredicts, 1)
				mispredictIdx = n - 1
			}
		default:
			// PC-relative taken branch (cond predicted taken, or
			// unconditional): target computable in the front end.
			if linePred != actualNext {
				s.col.Count(events.LineMispredicts, 1)
				if s.cfg.Feat.JumpAdder && !s.cfg.Bugs.LateBranchRecovery {
					// Slot-stage adder overrides the line predictor.
					bubble += uint64(s.cfg.SlotRedirect)
				} else {
					// Discovered after execute: full rollback.
					bubble += uint64(s.cfg.JmpFlush)
				}
			}
		}
	default:
		// Sequential packet: the line predictor should point at the
		// next octaword.
		if linePred != actualNext&^3 && linePred != base+16 {
			s.col.Count(events.LineMispredicts, 1)
			if s.cfg.Bugs.LateBranchRecovery {
				bubble += uint64(s.cfg.JmpFlush)
			} else {
				bubble += uint64(s.cfg.LineMispredict)
			}
		}
	}

	// A ret that popped the RAS still consumed the top entry even on
	// a misprediction; nothing further to model there.

	// Octaword squash: slots after a taken branch in the same
	// octaword are squashed for free on the real machine; sim-initial
	// charged one cycle.
	if s.cfg.Bugs.OctawordSquashPenalty && last.IsBranch() && last.Taken {
		if (last.PC&15)/4 < 3 {
			bubble++
		}
	}

	// Line predictor training: speculative (at fetch) or delayed to
	// the packet's resolution.
	if specHist {
		s.line.Train(first.PC, actualNext)
	}

	// Allocate entries.
	for i := 0; i < n; i++ {
		rec := s.ahead.At(i)
		e := s.alloc(rec)
		e.availAt = deliverAt
		e.fetchMiss = !ires.L1Hit
		switch rec.Inst.Op {
		case isa.OpBsr, isa.OpJsr, isa.OpRet:
			e.rasOp = true
			s.inflightRASOps++
		}
		if i == mispredictIdx {
			e.mispredicted = true
			s.waitBranch = e.inum
		}
		if !specHist && i == n-1 {
			e.hasLineTrain = true
			e.lineTrainPC = first.PC
			e.lineTrainTo = actualNext
		}
	}
	s.ahead.Take(n)

	nextFetchAt += bubble
	if bubble > 0 && fetchWhy == events.CompFrontend {
		// Line-mispredict / squash bubbles are control recovery.
		fetchWhy = events.CompBranch
	}
	s.blockFetch(nextFetchAt, fetchWhy)
}

// alloc appends a record to the combined fetch/reorder window and
// precomputes its dependence and classification metadata.
func (s *sim) alloc(rec *cpu.Record) *entry {
	idx := s.idx(s.count)
	s.count++
	e := &s.rob[idx]
	*e = entry{
		rec:  *rec,
		inum: s.nextInum,
		cls:  rec.Inst.Op.Class(),
	}
	s.nextInum++

	// Static subcluster slotting via the slot-stage table: multiplies
	// must reach the (upper) multiplier, memory operations the lower
	// pipes' memory ports; everything else slots by octaword position.
	switch {
	case e.cls == isa.ClassIntMul:
		e.slotUpper = true
	case e.cls.IsMem():
		e.slotUpper = false
	case s.cfg.Bugs.WrongFUMix && intSide(e.cls):
		e.slotUpper = false // the miscounted adders live on the lower pipes
	default:
		e.slotUpper = (rec.PC>>2)&1 == 1
	}

	// Source dependences: resolve against the latest writers, and
	// link each operand whose producer has not issued into that
	// producer's wakeup chain.
	var srcs [3]isa.RegRef
	for _, src := range srcs[:rec.Inst.SourcesInto(&srcs)] {
		file := 0
		if src.FP {
			file = 1
		}
		if w := s.lastWriter[file][src.Reg]; w != 0 && s.inFlight(w) {
			if p := s.at(w); !p.issued {
				u := int32(3*idx + e.nsrc)
				s.uses[u] = p.firstUse
				p.firstUse = u + 1
				e.waiting++
			} else {
				e.operandsAt = max(e.operandsAt, p.readyAt)
			}
			e.srcs[e.nsrc] = w
			e.nsrc++
		}
	}
	if d, ok := rec.Inst.Dest(); ok {
		e.hasDest = true
		e.dest = d
		file := 0
		if d.FP {
			file = 1
		}
		s.lastWriter[file][d.Reg] = e.inum
	}
	if e.cls.IsMem() {
		e.isLoad = e.cls.IsLoad()
		e.isStore = e.cls.IsStore()
		g := uint64(s.cfg.TrapGranule)
		if s.cfg.Bugs.CoarseTrapCompare {
			g = 32
		}
		e.granule = rec.EA &^ (g - 1)
	}
	return e
}
