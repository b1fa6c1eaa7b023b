package alpha

import (
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fingerprint"
	"repro/internal/isa"
	"repro/internal/predict"
)

// compat fingerprints the warm-relevant configuration: the memory
// hierarchy, the warmed-predictor geometry, and the mapping policy.
// Machines that differ only in core parameters (ROB size, issue
// widths, latencies, feature toggles) share a fingerprint, so one
// checkpoint library serves a whole design-space sweep over them.
// The rendering is hashed so the tag is a fixed-width opaque token —
// usable in filenames and log lines, never colliding on a shared
// struct-rendering prefix.
func (c Config) compat() string {
	return checkpoint.Hash([]byte(fingerprint.Of(struct {
		Hier   cache.HierarchyConfig
		Tour   predict.TournamentConfig
		Mapper string
	}{c.Hier, c.Tour, c.Mapping.Policy})))
}

// RecordCheckpoints implements core.CheckpointRecorder: one
// functional pass over the workload, warming caches and the
// tournament, line and way predictors exactly as a timed run's skip
// path would, with a state snapshot at each requested position.
func (c Config) RecordCheckpoints(w core.Workload, positions []uint64) ([]*checkpoint.State, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	return core.Record(c.spec(nil), w, positions)
}

// Warm implements core.Kernel, the functional-warming path: every
// record is run through the caches (per-line on the I-side, as fetch
// does) and the direction predictor, and a warm I-miss triggers the
// same sequential line prefetches the timed front end issues —
// without them, warmed I-cache contents drift measurably from timed
// history (both the extra coverage and the pollution are missing) and
// checkpointed sampling reads biased-fast.
//
// It also reconstructs fetch packets for line/way-predictor training:
// packets are maximal runs of sequential instructions within one
// octaword (capped at FetchWidth) ending at the first taken branch —
// exactly how the front end forms them, minus the occasional split
// when the ROB backs up. When a packet ends, the line predictor learns
// the next packet's address and the way predictor the packet's
// resident I-cache way, as fetch trains them.
func (s *sim) Warm(rec cpu.Record) {
	hier := s.hier
	if ln := rec.PC &^ 63; ln != s.warmLine {
		if miss := hier.WarmInst(rec.PC); miss && s.cfg.Feat.IPrefetch {
			for i := 1; i <= 4; i++ {
				hier.WarmPrefetchInst(rec.PC + uint64(i*s.cfg.Hier.L1I.BlockBytes))
			}
		}
		s.warmLine = ln
	}
	switch {
	case s.pktLen == 0:
		s.pktStart, s.pktLen = rec.PC, 1
	case s.pktLen < s.cfg.FetchWidth &&
		!(s.pktPrev.IsBranch() && s.pktPrev.Taken) &&
		rec.PC == s.pktPrev.PC+isa.WordBytes &&
		rec.PC&^15 == s.pktStart&^15:
		s.pktLen++
	default:
		s.line.Train(s.pktStart, rec.PC)
		set, w := hier.InstPlacement(s.pktStart)
		s.way.Train(set, w)
		s.pktStart, s.pktLen = rec.PC, 1
	}
	s.pktPrev = rec
	cls := rec.Inst.Op.Class()
	if cls.IsMem() {
		hier.WarmData(rec.EA, cls.IsStore())
	} else if cls == isa.ClassCondBr {
		s.tour.Resolve(rec.PC, rec.Taken)
	}
}

// ExportWarm implements core.Kernel: the tournament, line and way
// predictors are all warmed state.
func (s *sim) ExportWarm(st *checkpoint.State) {
	ts, ls, ws := s.tour.Export(), s.line.Export(), s.way.Export()
	st.Tour, st.Line, st.Way = &ts, &ls, &ws
}

// ImportWarm implements core.Kernel.
func (s *sim) ImportWarm(st *checkpoint.State) error {
	if err := s.tour.Import(*st.Tour); err != nil {
		return err
	}
	if err := s.line.Import(*st.Line); err != nil {
		return err
	}
	return s.way.Import(*st.Way)
}
