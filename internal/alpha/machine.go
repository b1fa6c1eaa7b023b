package alpha

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ddr"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/predict"
)

// Name implements core.Machine: a Config is its machine.
func (c Config) Name() string { return c.MachineName }

// Run implements core.Machine; each run constructs fresh pipeline
// state. A configuration failing Check is an error, never a panic.
func (c Config) Run(w core.Workload) (core.RunResult, error) { return c.run(w, nil) }

// run is Run reporting every retired instruction to t (nil: none).
func (c Config) run(w core.Workload, t PipeTracer) (core.RunResult, error) {
	if err := c.Check(); err != nil {
		return core.RunResult{}, err
	}
	return core.Drive(c.spec(t), w)
}

// spec describes the machine to the run driver; its kernel is a
// fresh pipeline (*sim) reporting to t.
func (c Config) spec(t PipeTracer) core.Spec {
	return core.Spec{
		Machine: c.MachineName,
		Family:  checkpoint.ModelAlpha,
		Events:  events.ModelAlpha,
		Compat:  c.compat,
		New:     func() core.Kernel { return newSim(c, t) },
	}
}

// traced is a 21264-family machine whose runs report every retired
// instruction to a tracer. The tracer observes runs without changing
// them, so it is not part of the configuration.
type traced struct {
	Config
	tracer PipeTracer
}

// NewTraced returns a machine at cfg that reports every retired
// instruction to t (see PipeTraceWriter); a nil t traces nothing.
func NewTraced(cfg Config, t PipeTracer) core.Machine { return traced{cfg, t} }

// Run implements core.Machine.
func (m traced) Run(w core.Workload) (core.RunResult, error) { return m.run(w, m.tracer) }

// entry is one in-flight instruction in the reorder buffer.
type entry struct {
	rec  cpu.Record
	inum uint64
	cls  isa.Class

	hasDest bool
	dest    isa.RegRef
	srcs    [3]uint64 // producer inums (0 = none/ready)
	nsrc    int
	// waiting counts e's operands whose in-flight producer has not
	// issued (linked at fetch); e is on the ready list while it is
	// mapped, unissued and waiting is 0. firstUse heads the chain of
	// operand edges waiting on e itself (an index into sim.uses plus
	// one; 0 = none).
	waiting  uint8
	firstUse int32
	// operandsAt is the latest readyAt among e's in-flight producers,
	// known once they have all issued: no operand can reach e before
	// it, whatever the cluster (srcsReadyAt only adds to it).
	operandsAt uint64

	availAt uint64 // fetch delivery cycle (eligible to map)
	mapped  bool
	mapAt   uint64
	dropped bool // unop removed at map (eret)

	issued    bool
	issueAt   uint64
	readyAt   uint64 // result visible to consumers (same cluster)
	doneAt    uint64 // resolution/completion
	cluster   int8
	slotUpper bool

	resolved   bool
	queueFreed bool

	// Control bookkeeping.
	mispredicted bool // fetch waits on this entry's resolution
	rasOp        bool
	lineTrainPC  uint64 // delayed line-predictor training (non-spec update)
	lineTrainTo  uint64
	hasLineTrain bool

	// Memory bookkeeping.
	isLoad, isStore bool
	granule         uint64

	// CPI-stack attribution.
	fetchMiss bool             // delivered by a fetch that missed the I-cache
	memMiss   bool             // load whose data came from beyond the L1
	memComp   events.Component // hierarchy level that served the miss
}

// sim is the per-run pipeline state.
type sim struct {
	cfg    Config
	tracer PipeTracer
	src    cpu.Source
	hier   *cache.Hierarchy

	tour *predict.Tournament
	line *predict.Line
	way  *predict.Way
	ras  *predict.RAS
	luse *predict.LoadUse
	stwt *predict.StoreWait

	// ahead is the fetch lookahead, eight records: the front end never
	// looks further ahead, whatever the fetch width.
	ahead cpu.Lookahead

	rob      []entry
	head     int
	count    int
	nextInum uint64
	headInum uint64 // inum of ROB head (retired boundary)

	// Event scheduling. Per-cycle work follows events, not window
	// occupancy, and cycles with no event are jumped (skipQuiet):
	//
	//   mapInum — inum of the oldest unmapped entry (everything older
	//             is mapped); the map stage is O(width).
	//   ready   — one bit per ROB slot, set for issue-queue occupants
	//             whose in-flight producers have all issued. Walked
	//             from the head it is the age-ordered ready list, the
	//             only entries the issue stage visits.
	//   uses    — operand edges, three per ROB slot: uses[3*slot+k]
	//             links operand k of that slot's entry to the next
	//             edge waiting on the same producer. A producer's
	//             issue walks its chain and wakes each consumer.
	//   done    — the completion queue: a min-heap of issued,
	//             unresolved entries by (resolution cycle, inum).
	//   frees   — issued inums in issue order from freeHead on. A
	//             queue slot frees QueueFreeLag cycles after issue, so
	//             frees fall due in this order.
	//   stores  — the inums of fetched stores in age order. The
	//             cursor storeHead moves past stores that have issued
	//             or retired, so it rests on the oldest unissued one.
	//   loadAt  — the trap filter: per bucket of trap granules, the
	//             inum of the youngest load issued to one. A trap
	//             check walks the window only when its granule's
	//             bucket holds a load younger than the checker.
	mapInum   uint64
	ready     []uint64
	uses      []int32
	done      []completion
	frees     []uint64
	freeHead  int
	stores    []uint64
	storeHead int
	loadAt    [1 << trapBits]uint64

	// issueIdleUntil gates the issue scan: a scan that issued nothing
	// records the earliest cycle anything could become eligible, and
	// the stage sleeps until then. Mapping or retiring anything resets
	// the gate (both can change operand readiness).
	issueIdleUntil uint64

	// specBuf is resolve's reusable in-flight-branch outcome buffer.
	specBuf []bool

	lastWriter [2][isa.NumRegs]uint64 // latest producer inum per arch reg
	// readyByInum remembers result-ready times of recently issued
	// instructions so operand timing survives early retirement.
	readyByInum [4096]uint64

	cycle   uint64
	retired uint64

	fetchBlockedUntil uint64
	waitBranch        uint64 // inum fetch waits on; 0 = none
	issueBlockedUntil uint64
	mapBlockedUntil   uint64

	intQ, fpQ      int
	intInFlight    int // in-flight integer destinations (rename regs)
	fpInFlight     int
	inflightRASOps int
	fpDivBusyUntil uint64

	// col accumulates typed event counts and CPI-stack attribution
	// (the unified instrumentation layer, internal/events).
	col events.Collector
	// fetchBlockReason and issueBlockReason remember why the front
	// end or the issue stage was last stalled, so a no-retire cycle
	// can be charged to the right CPI-stack component.
	fetchBlockReason events.Component
	issueBlockReason events.Component
	// cur drives interval sampling when the workload requests it
	// (nil — and every call on it a no-op — for full runs).
	cur *core.SampleCursor

	// Functional-warming state (see Warm): the last I-cache line
	// warmed, and the fetch packet being reconstructed.
	warmLine, pktStart uint64
	pktLen             int
	pktPrev            cpu.Record
}

func newSim(cfg Config, tracer PipeTracer) *sim {
	// A deeper register file lengthens the pipeline: every recovery
	// that refills the front end pays the extra read stages.
	if d := cfg.RFReadCycles - 1; d > 0 {
		cfg.BrRecovery += d
		cfg.JmpFlush += d
		cfg.LoadUseRecovery += d
	}
	hier := cache.NewHierarchy(cfg.Hier, cfg.NewMapper(), ddr.NewOrFlat(cfg.DDR, cfg.DRAM))
	return &sim{
		cfg:      cfg,
		tracer:   tracer,
		hier:     hier,
		tour:     predict.NewTournament(cfg.Tour),
		line:     predict.NewLine(cfg.Hier.L1I.SizeBytes / 16),
		way:      predict.NewWay(cfg.Hier.L1I.Sets()),
		ras:      predict.NewRAS(cfg.RASEntries),
		luse:     predict.NewLoadUse(),
		stwt:     predict.NewStoreWait(),
		ahead:    cpu.NewLookahead(8),
		rob:      make([]entry, cfg.ROB),
		ready:    make([]uint64, (cfg.ROB+63)/64),
		uses:     make([]int32, 3*cfg.ROB),
		done:     make([]completion, 0, cfg.ROB),
		frees:    make([]uint64, 0, cfg.ROB),
		stores:   make([]uint64, 0, cfg.ROB),
		nextInum: 1,
		headInum: 1,
		mapInum:  1,
		warmLine: 1 << 63,
		pktStart: 1 << 63,
	}
}

// idx maps an offset from the ROB head to a slot index. Offsets are
// always < len(rob), so a conditional subtract replaces the modulo
// that used to dominate the per-cycle scans.
func (s *sim) idx(off int) int {
	off += s.head
	if n := len(s.rob); off >= n {
		off -= n
	}
	return off
}

// slot returns the ROB slot index of in-flight inum.
func (s *sim) slot(inum uint64) int { return s.idx(int(inum - s.headInum)) }

// nextReady returns the slot of the oldest ready-list entry younger
// than the one in slot (-1: the oldest of all), or -1 if there is
// none. Slots run in age order from the head's to the end of the ROB,
// then wrap to 0.
func (s *sim) nextReady(slot int) int {
	lo := slot + 1
	if slot < 0 {
		lo = s.head
	}
	if slot < 0 || slot >= s.head {
		if j := nextBit(s.ready, lo, len(s.rob)); j >= 0 {
			return j
		}
		lo = 0
	}
	return nextBit(s.ready, lo, s.head)
}

// nextBit returns the index of the first set bit of b in [lo, hi), or
// -1 if there is none.
func nextBit(b []uint64, lo, hi int) int {
	for lo < hi {
		if w := b[lo>>6] >> (lo & 63); w != 0 {
			if i := lo + bits.TrailingZeros64(w); i < hi {
				return i
			}
			return -1
		}
		lo = (lo | 63) + 1
	}
	return -1
}

func setBit(b []uint64, i int)   { b[i>>6] |= 1 << (i & 63) }
func clearBit(b []uint64, i int) { b[i>>6] &^= 1 << (i & 63) }

// completion is a completion-queue key. at is the cycle an issued
// entry resolves: its doneAt, or the cycle after issue if that is
// later (the resolution stage runs before issue). Entries due in one
// cycle resolve in age order.
type completion struct{ at, inum uint64 }

func (a completion) before(b completion) bool {
	return a.at < b.at || a.at == b.at && a.inum < b.inum
}

// pushDone adds c to the completion heap.
func (s *sim) pushDone(c completion) {
	s.done = append(s.done, c)
	h := s.done
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// popDone removes and returns the completion heap's minimum.
func (s *sim) popDone() completion {
	h := s.done
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < last && h[l].before(h[m]) {
			m = l
		}
		if r := 2*i + 2; r < last && h[r].before(h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.done = h
	return top
}

// Hier implements core.Kernel.
func (s *sim) Hier() *cache.Hierarchy { return s.hier }

// Time implements core.Kernel: the pipeline times src until the
// stream drains and the ROB empties.
func (s *sim) Time(src cpu.Source, cur *core.SampleCursor) (uint64, uint64, *events.Collector, error) {
	s.src, s.cur = src, cur
	err := s.run()
	return s.cycle, s.retired, &s.col, err
}

// blockFetch stalls the front end until the given cycle, recording
// the CPI-stack component responsible when it extends the stall.
func (s *sim) blockFetch(until uint64, why events.Component) {
	if s.fetchBlockedUntil < until {
		s.fetchBlockedUntil = until
		s.fetchBlockReason = why
	}
}

// blockIssue stalls issue until the given cycle, recording the
// CPI-stack component responsible when it extends the stall.
func (s *sim) blockIssue(until uint64, why events.Component) {
	if s.issueBlockedUntil < until {
		s.issueBlockedUntil = until
		s.issueBlockReason = why
	}
}

// classifyStall attributes one cycle in which nothing retired to the
// CPI-stack component that caused it, judged from the oldest
// instruction's state — the classic head-of-window stall accounting.
// Called after resolveAndRetire, before the younger stages run.
func (s *sim) classifyStall() events.Component {
	if s.count > 0 {
		e := &s.rob[s.head]
		switch {
		case e.dropped:
			// Early-retired unop waiting for a retire slot.
			return events.CompBase
		case !e.mapped:
			if s.cycle < s.mapBlockedUntil {
				return events.CompFrontend // map-stage rename stall
			}
			if s.cycle < e.availAt && e.fetchMiss {
				return events.CompICache // still in flight from a missed fetch
			}
			return events.CompFrontend // queue/width/delivery pressure
		case !e.issued:
			if s.cycle < s.issueBlockedUntil {
				return s.issueBlockReason // trap or PAL recovery window
			}
			if comp, ok := s.producerMemStall(e); ok {
				return comp // waiting on an outstanding data miss
			}
			return events.CompBase // dependence or structural issue limit
		default:
			if e.memMiss && s.cycle < e.doneAt {
				return e.memComp // its own data miss is outstanding
			}
			return events.CompBase // execution latency
		}
	}
	// Window empty: the front end is refilling.
	if s.cycle < s.fetchBlockedUntil {
		return s.fetchBlockReason
	}
	return events.CompFrontend
}

// producerMemStall reports whether e is waiting on a producer whose
// result is an outstanding cache miss, and at which hierarchy level.
func (s *sim) producerMemStall(e *entry) (events.Component, bool) {
	for i := 0; i < e.nsrc; i++ {
		p := e.srcs[i]
		if p == 0 || !s.inFlight(p) {
			continue
		}
		pe := s.at(p)
		if pe.issued && pe.memMiss && s.cycle < pe.readyAt {
			return pe.memComp, true
		}
	}
	return 0, false
}

// at returns the ROB entry with the given inum, which must be in
// flight.
func (s *sim) at(inum uint64) *entry {
	return &s.rob[s.idx(int(inum-s.headInum))]
}

// inFlight reports whether inum names an un-retired instruction.
func (s *sim) inFlight(inum uint64) bool {
	return inum >= s.headInum && inum < s.headInum+uint64(s.count)
}

// run executes the pipeline until the stream drains and the ROB
// empties.
func (s *sim) run() error {
	// A watchdog bounds how long the pipeline may go without retiring
	// anything; a healthy machine retires within any memory round trip.
	const stuckLimit = 1 << 20
	lastRetired, lastProgress := uint64(0), uint64(0)
	for {
		if s.count == 0 && s.ahead.Drained() {
			return nil
		}
		// Quiet cycles are jumped, never stepped. The jump stops short
		// of the watchdog's deadline, so the watchdog fires on the
		// cycle, and with the state, that stepping would reach.
		s.skipQuiet(lastProgress + stuckLimit)
		before := s.retired
		s.resolveAndRetire()
		if s.retired == before {
			// Nothing retired this cycle: charge it to the component
			// blocking the head of the window. Cycles that do retire
			// land in the base component (see Collector.Finish).
			s.col.Attribute(s.classifyStall(), 1)
		}
		s.issue()
		s.mapStage()
		s.fetch()
		s.cycle++
		if s.retired != lastRetired {
			lastRetired = s.retired
			lastProgress = s.cycle
		} else if s.cycle-lastProgress > stuckLimit {
			return fmt.Errorf("alpha: pipeline deadlock at cycle %d (retired %d): %s",
				s.cycle, s.retired, s.dumpState())
		}
	}
}

// skipQuiet moves the clock from this cycle to the next one in which
// a stage may act or the head-of-window stall classification may
// change, never past limit. Every bound below is the cycle at which
// one of those may first happen; before it nothing resolves, frees a
// queue slot, retires, issues, maps or fetches. The skipped cycles are
// charged to the CPI stack at once, and the rename stalls that re-arm
// meanwhile are counted on their schedule.
func (s *sim) skipQuiet(limit uint64) {
	now, t := s.cycle, limit
	if now >= s.issueBlockedUntil && now >= s.issueIdleUntil {
		return // the issue scan runs
	}
	t = soonest(t, now, s.issueBlockedUntil)
	t = soonest(t, now, s.issueIdleUntil)
	// The completion heap's head also bounds the readyAt and doneAt
	// cycles classifyStall compares with: an issued entry's readyAt
	// and doneAt still to come are no earlier than its completion.
	if len(s.done) > 0 {
		if s.done[0].at <= now {
			return // a completion is due
		}
		t = min(t, s.done[0].at)
	}
	if s.count > 0 && s.rob[s.head].resolved {
		return // the head retires
	}
	if s.freeHead < len(s.frees) {
		inum := s.frees[s.freeHead]
		if inum < s.headInum {
			return // the free FIFO drops a retired entry
		}
		at := s.at(inum).issueAt + uint64(s.cfg.QueueFreeLag)
		if at <= now {
			return // a queue slot frees
		}
		t = min(t, at)
	}
	if s.waitBranch == 0 && now >= s.fetchBlockedUntil &&
		(!s.ahead.Full() || s.ahead.Len() > 0 && s.count+s.cfg.FetchWidth <= len(s.rob)) {
		// Fetch fills the lookahead (which, sampled, warms the
		// hierarchy) or fetches a packet.
		return
	}
	t = soonest(t, now, s.fetchBlockedUntil)
	act, from, _ := s.mapNext()
	if act == mapCommit {
		if from <= now {
			return // an entry maps
		}
		t = min(t, from)
	}
	if s.count > 0 && !s.rob[s.head].mapped {
		// classifyStall reads both while the head waits to map.
		t = soonest(t, now, s.mapBlockedUntil)
		t = soonest(t, now, s.rob[s.head].availAt)
	}
	if t <= now {
		return
	}
	s.col.Attribute(s.classifyStall(), t-now)
	if act == mapStall {
		if from = max(from, now); from < t {
			s.renameStalls(from, t)
		}
	}
	s.cycle = t
}

// soonest returns at if it falls after now and before t, else t.
func soonest(t, now, at uint64) uint64 {
	if at > now && at < t {
		return at
	}
	return t
}

// dumpState renders the head of the window for deadlock diagnostics.
func (s *sim) dumpState() string {
	out := fmt.Sprintf("count=%d intQ=%d fpQ=%d intInFlight=%d fpInFlight=%d issueBlk=%d mapBlk=%d fetchBlk=%d waitBranch=%d\n",
		s.count, s.intQ, s.fpQ, s.intInFlight, s.fpInFlight,
		s.issueBlockedUntil, s.mapBlockedUntil, s.fetchBlockedUntil, s.waitBranch)
	for i := 0; i < s.count && i < 6; i++ {
		e := &s.rob[(s.head+i)%len(s.rob)]
		out += fmt.Sprintf("  [%d] %v inum=%d mapped=%v issued=%v resolved=%v doneAt=%d availAt=%d\n",
			i, e.rec.Inst, e.inum, e.mapped, e.issued, e.resolved, e.doneAt, e.availAt)
	}
	return out
}

// freeQueueSlot releases e's issue-queue slot exactly once.
func (s *sim) freeQueueSlot(e *entry) {
	if e.queueFreed || e.dropped {
		return
	}
	e.queueFreed = true
	if !intSide(e.cls) {
		s.fpQ--
	} else if e.cls != isa.ClassNop && e.cls != isa.ClassHalt || s.unopsThroughIssue() {
		s.intQ--
	}
}

// resolveAndRetire processes completions (training predictors,
// waking the front end, detecting traps) and retires from the head.
func (s *sim) resolveAndRetire() {
	// Queue-slot frees fall due in issue order. An entry that retired
	// first freed its slot at retirement.
	lag := uint64(s.cfg.QueueFreeLag)
	for ; s.freeHead < len(s.frees); s.freeHead++ {
		if inum := s.frees[s.freeHead]; inum >= s.headInum {
			e := s.at(inum)
			if e.issueAt+lag > s.cycle {
				break
			}
			s.freeQueueSlot(e)
		}
	}
	// Completions fixed at issue fall due here, in age order within a
	// cycle: fetch restarts, line training, history repair and store
	// trap checks all depend on that order.
	for len(s.done) > 0 && s.done[0].at <= s.cycle {
		s.resolve(s.at(s.popDone().inum))
	}
	// In-order retire.
	n := 0
	for s.count > 0 && n < s.cfg.RetireWidth {
		e := &s.rob[s.head]
		if !e.resolved || s.cycle < e.doneAt {
			break
		}
		s.freeQueueSlot(e)
		s.emitPipeEvent(e)
		if e.cls == isa.ClassCondBr {
			// Train the tournament predictor in program order, as the
			// hardware does at retirement.
			s.tour.Resolve(e.rec.PC, e.rec.Taken)
		}
		if e.hasDest {
			if e.dest.FP {
				s.fpInFlight--
			} else {
				s.intInFlight--
			}
		}
		s.head = s.idx(1)
		s.count--
		s.headInum++
		s.retired++
		s.cur.OnRetire(s.retired, s.cycle, &s.col)
		n++
	}
	if n > 0 {
		// Retirement can advance operand readiness (a retired
		// producer's result no longer pays the cross-cluster hop), so
		// the issue stage must look again.
		s.issueIdleUntil = 0
	}
}

// resolve handles one instruction's completion. Predictor training
// happens later, in program order at retirement, as on the 21264;
// resolution handles the timing consequences (fetch restart, traps).
func (s *sim) resolve(e *entry) {
	e.resolved = true
	if e.rasOp {
		s.inflightRASOps--
	}
	if e.hasLineTrain {
		s.line.Train(e.lineTrainPC, e.lineTrainTo)
		e.hasLineTrain = false
	}
	if e.mispredicted && s.waitBranch == e.inum {
		rec := s.cfg.BrRecovery
		if e.cls == isa.ClassJump {
			// Mispredicted indirect jumps flush and restart the whole
			// front end (10 cycles on the 21264; sim-initial charged
			// half of it).
			rec = s.cfg.JmpFlush - 3
			if s.cfg.Bugs.CheapJmpFlush {
				rec = rec / 2
			}
			if rec < 1 {
				rec = 1
			}
		}
		s.blockFetch(e.doneAt+uint64(rec), events.CompBranch)
		s.waitBranch = 0
		// Repair the speculative global history: retired history
		// extended by the in-flight branches in program order (their
		// outcomes where known, their predictions otherwise).
		s.specBuf = s.specBuf[:0]
		ix := s.head
		for i := 0; i < s.count; i++ {
			f := &s.rob[ix]
			if ix++; ix == len(s.rob) {
				ix = 0
			}
			if f.cls != isa.ClassCondBr || f.dropped {
				continue
			}
			// In-flight branches are on the correct path (the model
			// is trace-driven); the hardware refetches and re-predicts
			// everything younger than the mispredict, so their actual
			// outcomes are what ends up in the history register.
			s.specBuf = append(s.specBuf, f.rec.Taken)
		}
		s.tour.RebuildSpec(s.specBuf)
	}
	if e.isStore {
		s.storeTrapScan(e)
	}
}

// storeTrapScan detects store replay traps: a younger load that
// already issued to the same address granule as this just-resolved
// store must replay (the 21264 flushes from the load onward).
func (s *sim) storeTrapScan(st *entry) {
	if s.loadAt[trapBucket(st.granule)] < st.inum {
		return // no younger load to the granule has issued
	}
	ix := s.idx(int(st.inum-s.headInum) + 1)
	for i := int(st.inum-s.headInum) + 1; i < s.count; i++ {
		e := &s.rob[ix]
		if ix++; ix == len(s.rob) {
			ix = 0
		}
		if e.isLoad && e.issued && e.granule == st.granule && e.issueAt < st.doneAt {
			s.col.Count(events.ReplayTraps, 1)
			s.stwt.MarkTrap(e.rec.PC)
			s.blockIssue(st.doneAt+uint64(s.cfg.TrapPenalty), events.CompReplay)
			return
		}
	}
}

// srcsReadyAt returns the earliest cycle all of e's operands are
// available on the given cluster. e is on the ready list, so every
// in-flight producer has issued.
func (s *sim) srcsReadyAt(e *entry, cluster int8) uint64 {
	var latest uint64
	for i := 0; i < e.nsrc; i++ {
		p := e.srcs[i]
		if p == 0 {
			continue // architectural: ready
		}
		var t uint64
		var prodCluster int8 = -1
		if s.inFlight(p) {
			pe := s.at(p)
			t = pe.readyAt
			prodCluster = pe.cluster
		} else if e.inum-p < uint64(len(s.readyByInum)) {
			// Recently retired: its result may still be in flight to
			// the register file.
			t = s.readyByInum[p%uint64(len(s.readyByInum))]
		} else {
			continue // long retired: ready
		}
		// Register-file read depth (Figure 2): with full bypassing,
		// dependence edges are served by the bypass network and never
		// see the register file, so extra read latency costs nothing
		// here (it deepens the pipeline instead — see newSim). With
		// partial bypassing, edges pay the exposed read latency,
		// overlapped with the one-cycle cross-cluster hop.
		var extra uint64
		if s.cfg.PartialBypass {
			extra = uint64(s.cfg.RFReadCycles - 1)
		}
		if !e.cls.IsFP() && prodCluster >= 0 && cluster >= 0 && prodCluster != cluster && extra < 1 {
			extra = 1 // cross-cluster bypass floor
		}
		t += extra
		if t > latest {
			latest = t
		}
	}
	return latest
}

// oldestUnissuedStore returns the inum of the oldest store in flight
// that has not issued (the largest uint64 if there is none), first
// moving the store cursor past every store that has.
func (s *sim) oldestUnissuedStore() uint64 {
	for ; s.storeHead < len(s.stores); s.storeHead++ {
		if inum := s.stores[s.storeHead]; inum >= s.headInum && !s.at(inum).issued {
			return inum
		}
	}
	return ^uint64(0)
}

// trapBits sizes the trap filter: 1<<trapBits buckets of granules.
const trapBits = 9

// trapBucket hashes a trap granule to its trap-filter bucket.
func trapBucket(granule uint64) int {
	return int(granule * 0x9E3779B97F4A7C15 >> (64 - trapBits))
}

// loadOrderTrap checks, when an older load issues, whether a younger
// load to the same granule already executed (a load-load order
// violation replay trap). It records ld in the trap filter, which
// spares the walk unless a younger load in ld's bucket has issued.
func (s *sim) loadOrderTrap(ld *entry) {
	if b := &s.loadAt[trapBucket(ld.granule)]; *b < ld.inum {
		*b = ld.inum
		return
	}
	ix := s.idx(int(ld.inum-s.headInum) + 1)
	for i := int(ld.inum-s.headInum) + 1; i < s.count; i++ {
		e := &s.rob[ix]
		if ix++; ix == len(s.rob) {
			ix = 0
		}
		if e.isLoad && e.issued && e.granule == ld.granule {
			s.col.Count(events.ReplayTraps, 1)
			s.blockIssue(s.cycle+uint64(s.cfg.TrapPenalty), events.CompReplay)
			return
		}
	}
}

// intSide reports whether the instruction issues from the integer
// queue and pipes. Loads and stores of either file use the memory
// ports on the lower integer pipes, as on the 21264.
func intSide(cls isa.Class) bool {
	return !cls.IsFP() || cls == isa.ClassFPLoad || cls == isa.ClassFPStore
}

// issue selects and starts instructions, oldest first, from the
// ready list: queue occupants whose in-flight producers have all
// issued. A producer's issue wakes its consumers into the list at
// their age positions, so a consumer woken mid-scan is still visited
// later in the same scan. Entries map after this stage runs, so a
// queue entry is first eligible the cycle after it is written.
func (s *sim) issue() {
	if s.cycle < s.issueBlockedUntil || s.cycle < s.issueIdleUntil {
		return
	}

	intLeft := s.cfg.IntIssueWidth
	fpLeft := s.cfg.FPIssueWidth
	memLeft := 2            // two memory ports (one per cluster, lower pipes)
	var pipeUsed [2][2]bool // [cluster][upper]
	fpAddUsed, fpMulUsed := false, false

	// If the whole scan issues nothing, the queue state is frozen until
	// a known future cycle (collected in idleUntil), a map, or a
	// retirement — so the stage can sleep until then. (Entries off the
	// ready list wait on a producer's issue, which an idle scan never
	// makes.) Skips whose wake time is unknowable here, and any cycle
	// that consulted the (stateful, periodically-clearing) store-wait
	// table, pin the scan awake instead.
	issuedAny := false
	noSkip := false
	idleUntil := ^uint64(0)
	deferUntil := func(t uint64) {
		if t < idleUntil {
			idleUntil = t
		}
	}

	for slot := s.nextReady(-1); slot >= 0 && (intLeft > 0 || fpLeft > 0); slot = s.nextReady(slot) {
		e := &s.rob[slot]
		if e.operandsAt > s.cycle {
			// No operand has arrived yet on any cluster.
			deferUntil(e.operandsAt)
			continue
		}
		if e.cls == isa.ClassNop || e.cls == isa.ClassHalt {
			// Unops reach here only when they consume issue slots: the
			// scheduler treats them as ordinary ALU operations, so they
			// also occupy a real pipe, contending with loads and
			// multiplies for their subclusters.
			if intLeft == 0 {
				noSkip = true
				continue
			}
			cluster, ok := s.pickIntPipe(e, &pipeUsed)
			if !ok {
				noSkip = true
				continue
			}
			pipeUsed[cluster][b2i(e.slotUpper)] = true
			intLeft--
			issuedAny = true
			s.start(e, cluster, 1)
			continue
		}
		if !intSide(e.cls) {
			// Floating-point computation: one add-class pipe, one
			// multiply pipe; divide/sqrt occupy the add pipe
			// non-pipelined.
			if fpLeft == 0 {
				noSkip = true
				continue
			}
			if ready := s.srcsReadyAt(e, -1); ready > s.cycle {
				deferUntil(ready)
				continue
			}
			lat := e.cls.Latency()
			switch e.cls {
			case isa.ClassFPMul:
				if fpMulUsed {
					noSkip = true
					continue
				}
				fpMulUsed = true
			case isa.ClassFPDivS, isa.ClassFPDivT, isa.ClassFPSqrtS, isa.ClassFPSqrtT:
				if fpAddUsed || s.cycle < s.fpDivBusyUntil {
					if fpAddUsed {
						noSkip = true
					} else {
						deferUntil(s.fpDivBusyUntil)
					}
					continue
				}
				fpAddUsed = true
				s.fpDivBusyUntil = s.cycle + uint64(lat)
			default: // FP add, compare, convert
				if fpAddUsed {
					noSkip = true
					continue
				}
				fpAddUsed = true
			}
			fpLeft--
			issuedAny = true
			s.start(e, -1, lat)
			continue
		}
		// Integer-side (including FP loads/stores).
		if intLeft == 0 {
			noSkip = true
			continue
		}
		if e.cls.IsMem() && memLeft == 0 {
			noSkip = true
			continue
		}
		cluster, ok := s.pickIntPipe(e, &pipeUsed)
		if !ok {
			noSkip = true
			continue
		}
		if ready := s.srcsReadyAt(e, cluster); ready > s.cycle {
			deferUntil(ready)
			continue
		}
		if e.cls.IsMem() {
			if e.isLoad && s.cfg.Feat.StoreWait &&
				s.stwt.ShouldWait(e.rec.PC, s.cycle) && s.oldestUnissuedStore() < e.inum {
				// An older store has not resolved its address.
				// ShouldWait ticks the table's periodic clear, so its
				// cycle-by-cycle call pattern must be preserved.
				noSkip = true
				continue
			}
			pipeUsed[cluster][b2i(e.slotUpper)] = true
			intLeft--
			memLeft--
			issuedAny = true
			s.issueMem(e, cluster)
			continue
		}
		pipeUsed[cluster][b2i(e.slotUpper)] = true
		intLeft--
		issuedAny = true
		s.start(e, cluster, e.cls.Latency())
	}
	if !issuedAny && !noSkip {
		s.issueIdleUntil = idleUntil
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pickIntPipe chooses an integer cluster/subcluster pipe for e.
func (s *sim) pickIntPipe(e *entry, used *[2][2]bool) (int8, bool) {
	if s.cfg.Feat.SlotRestrict && !s.cfg.Bugs.WrongFUMix && !s.cfg.Bugs.AggressiveScheduler {
		// Validated 21264 configuration, unrolled: the slot table fixed
		// each entry's subcluster at allocation (multiplies upper,
		// memory lower), so the choice is just the preferred-cluster
		// probe of the generic walk below.
		if e.cls == isa.ClassIntMul {
			if used[0][1] {
				return 0, false // the one multiplier, cluster 0 upper
			}
			return 0, true
		}
		sub := b2i(e.slotUpper)
		c0, c1 := int8(0), int8(1)
		if e.slotUpper {
			c0, c1 = 1, 0
		}
		if !used[c0][sub] {
			return c0, true
		}
		if !used[c1][sub] {
			return c1, true
		}
		return 0, false
	}
	sub := b2i(e.slotUpper)
	needMul := e.cls == isa.ClassIntMul
	needMem := e.cls.IsMem()
	canDo := func(cluster, sb int) bool {
		if used[cluster][sb] {
			return false
		}
		if !s.cfg.Feat.SlotRestrict {
			// Slotting constraint removed: four universal pipes.
			return true
		}
		if needMem && sb != 0 {
			return false // memory ports are on the lower pipes
		}
		if s.cfg.Bugs.WrongFUMix {
			// Two multipliers on the upper pipes, two adders on the
			// lower pipes.
			if needMul {
				return sb == 1
			}
			return sb == 0
		}
		if needMul {
			return cluster == 0 && sb == 1 // the one multiplier
		}
		return true
	}
	subs := [2]int{sub, 1 - sub}
	nsub := 1
	if !s.cfg.Feat.SlotRestrict {
		nsub = 2
	}
	if s.cfg.Bugs.AggressiveScheduler {
		best, bestReady := int8(-1), uint64(1)<<63
		for c := int8(0); c < 2; c++ {
			for _, sb := range subs[:nsub] {
				if !canDo(int(c), sb) {
					continue
				}
				if ready := s.srcsReadyAt(e, c); ready < bestReady {
					bestReady = ready
					best = c
				}
			}
		}
		if best < 0 {
			return 0, false
		}
		return best, true
	}
	// Validated 21264 rule: upper-slotted prefer cluster 1, lower-
	// slotted prefer cluster 0.
	order := [2]int8{0, 1}
	if e.slotUpper {
		order = [2]int8{1, 0}
	}
	for _, c := range order {
		for _, sb := range subs[:nsub] {
			if canDo(int(c), sb) {
				return c, true
			}
		}
	}
	return 0, false
}

// begin marks e issued this cycle on a cluster: it leaves the ready
// list and its queue slot's release is queued.
func (s *sim) begin(e *entry, cluster int8) {
	e.issued = true
	e.issueAt = s.cycle
	e.cluster = cluster
	clearBit(s.ready, s.slot(e.inum))
	if s.freeHead > 0 && len(s.frees) == cap(s.frees) {
		n := copy(s.frees, s.frees[s.freeHead:])
		s.frees, s.freeHead = s.frees[:n], 0
	}
	s.frees = append(s.frees, e.inum)
}

// complete records issued e's result times (fixed at issue), queues
// its resolution, and wakes its consumers: each learns when this
// operand arrives, and one whose last unissued producer e was joins
// the ready list (if mapped).
func (s *sim) complete(e *entry, readyAt uint64) {
	e.readyAt = readyAt
	e.doneAt = readyAt
	s.readyByInum[e.inum%uint64(len(s.readyByInum))] = readyAt
	s.pushDone(completion{max(readyAt, s.cycle+1), e.inum})
	for u := e.firstUse; u != 0; u = s.uses[u-1] {
		slot := int(u-1) / 3
		c := &s.rob[slot]
		c.operandsAt = max(c.operandsAt, readyAt)
		if c.waiting--; c.waiting == 0 && c.mapped {
			setBit(s.ready, slot)
		}
	}
	e.firstUse = 0
}

// start issues e with the given latency on a cluster. A mispredicted
// jump's flush penalty is applied at resolve (waitBranch handling).
func (s *sim) start(e *entry, cluster int8, lat int) {
	s.begin(e, cluster)
	s.complete(e, s.cycle+uint64(lat))
}

// issueMem issues a load or store: it walks the memory hierarchy,
// applies load-use speculation, and schedules traps.
func (s *sim) issueMem(e *entry, cluster int8) {
	s.begin(e, cluster)

	write := e.isStore
	res := s.hier.Data(e.rec.EA, write, s.cycle)
	if res.TLBMiss {
		s.col.Count(events.TLBMisses, 1)
	}
	// Count the access's misses, and remember where a load's data came
	// from so head-of-window stall cycles can be charged to the right
	// hierarchy level.
	comp, miss := res.Miss(&s.col)
	if e.isLoad {
		switch {
		case miss:
			e.memMiss, e.memComp = true, comp
		case res.TLBMiss:
			e.memMiss, e.memComp = true, events.CompDRAM
		}
	}
	// TLB walk policy: PAL code stalls the machine (native); the
	// hardware walk only delays this access (sim-alpha).
	walk := uint64(res.WalkCycles)
	if res.TLBMiss && s.cfg.Extra.PALTLBMiss {
		s.blockIssue(s.cycle+walk+uint64(s.cfg.PALOverhead), events.CompDRAM)
		walk = 0
	}

	if res.MAFFull && s.cfg.Feat.MboxTraps {
		s.col.Count(events.MboxTraps, 1)
		s.blockIssue(s.cycle+uint64(s.cfg.TrapPenalty), events.CompReplay)
	}

	if e.isStore {
		// Stores resolve their address after one cycle; data commits
		// from the store buffer without impeding the pipe.
		s.complete(e, s.cycle+1)
		return
	}

	hit := res.L1Hit || res.VBHit
	hitLat := uint64(s.cfg.Hier.L1D.HitLatency)
	if e.cls == isa.ClassFPLoad {
		hitLat++ // FP loads are 4 cycles (Table 1)
	}
	actual := uint64(res.Latency) + walk
	if e.cls == isa.ClassFPLoad {
		actual++
	}
	if !hit && s.cfg.Bugs.ExtraRegreadCycle {
		actual++
	}

	lat := actual
	if s.cfg.Feat.LoadUseSpec {
		predHit := s.luse.PredictHit()
		s.luse.Train(hit)
		if predHit && !hit {
			// Consumers issued in the speculation window are
			// squashed and reissued.
			s.col.Count(events.LoadUseSquashes, 1)
			rec := uint64(s.cfg.LoadUseRecovery)
			if s.cfg.Bugs.CheapLoadUseRecovery && rec > 0 {
				rec--
			}
			s.blockIssue(s.cycle+hitLat+rec, events.CompReplay)
		} else if !predHit {
			// Conservative: consumers wait for the fill signal.
			lat = max(actual, hitLat+2)
		}
	} else {
		// No speculation: consumers always wait an extra two cycles
		// for the hit/miss outcome.
		lat = actual + 2
	}
	s.complete(e, s.cycle+lat)

	// Load-load ordering: if a younger load to the same granule has
	// already executed, the machine replays.
	s.loadOrderTrap(e)
}

// mapAction is what the map stage does with the oldest unmapped entry.
type mapAction uint8

const (
	mapNone   mapAction = iota // nothing, until the window, a queue or the rename registers change
	mapStall                   // a rename stall, re-armed every max(MapStallLen, 1) cycles
	mapCommit                  // the entry maps
)

// mapNext decides what the map stage does with the oldest unmapped
// entry, in ROB slot slot, from cycle from on, for as long as the
// window, the queues and the rename registers stay as they are.
// mapStage acts on it and skipQuiet plans by it, so the two cannot
// disagree.
func (s *sim) mapNext() (act mapAction, from uint64, slot int) {
	// Entries map strictly in program order, so the oldest unmapped
	// one is always at mapInum — no scan.
	if s.mapInum >= s.headInum+uint64(s.count) {
		return mapNone, 0, 0
	}
	slot = s.slot(s.mapInum)
	e := &s.rob[slot]
	// Queue capacity.
	if e.cls != isa.ClassNop && e.cls != isa.ClassHalt || s.unopsThroughIssue() {
		if !intSide(e.cls) {
			if s.fpQ >= s.cfg.FPQueue {
				return mapNone, 0, 0
			}
		} else if s.intQ >= s.cfg.IntQueue {
			return mapNone, 0, 0
		}
	}
	from = max(e.availAt, s.mapBlockedUntil)
	// Rename register availability.
	if e.hasDest {
		free := s.cfg.RenameRegs - s.intInFlight
		if e.dest.FP {
			free = s.cfg.RenameRegs - s.fpInFlight
		}
		if free <= 0 {
			return mapNone, 0, 0
		}
		if s.cfg.Feat.MapStall && free < s.cfg.MapStallFree {
			return mapStall, from, slot
		}
	}
	return mapCommit, from, slot
}

// renameStalls counts the rename stalls the map stage takes from cycle
// from until cycle to (from < to): one every max(MapStallLen, 1)
// cycles, each blocking the stage for MapStallLen cycles.
func (s *sim) renameStalls(from, to uint64) {
	p := uint64(max(s.cfg.MapStallLen, 1))
	n := (to - from + p - 1) / p
	s.col.Count(events.MapStalls, n)
	s.mapBlockedUntil = from + (n-1)*p + uint64(s.cfg.MapStallLen)
}

// mapStage renames and dispatches fetched instructions into the ROB
// and issue queues.
func (s *sim) mapStage() {
	for n := 0; n < s.cfg.MapWidth; n++ {
		act, from, slot := s.mapNext()
		if act == mapNone || from > s.cycle {
			return
		}
		if act == mapStall {
			s.renameStalls(s.cycle, s.cycle+1)
			return
		}
		// Commit the map.
		e := &s.rob[slot]
		cls := e.cls
		e.mapped = true
		e.mapAt = s.cycle
		s.mapInum++
		s.issueIdleUntil = 0 // new queue entry: the issue scan must look again
		if e.hasDest {
			if e.dest.FP {
				s.fpInFlight++
			} else {
				s.intInFlight++
			}
		}
		if (cls == isa.ClassNop || cls == isa.ClassHalt) && !s.unopsThroughIssue() {
			// Early retirement in the map stage (eret).
			e.dropped = true
			e.issued = true
			e.resolved = true
			e.readyAt = s.cycle
			e.doneAt = s.cycle
			continue
		}
		if !intSide(cls) {
			s.fpQ++
		} else {
			s.intQ++
		}
		if e.waiting == 0 {
			setBit(s.ready, slot)
		}
	}
}
