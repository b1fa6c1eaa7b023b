// Package ruu implements a SimpleScalar sim-outorder-style timing
// model: a five-stage pipeline built around a Register Update Unit
// that combines the physical register file, reorder buffer and issue
// window into one structure, with generic (unclustered, unslotted)
// function units, a two-level adaptive branch predictor with a BTB,
// and no replay traps — the abstract machine organization the paper
// contrasts with the validated 21264 model.
//
// Because it omits the clock-rate constraints of a real design (deep
// pipeline, clustering, line prediction, traps), this model
// systematically overestimates performance, which is exactly the
// behavior Table 3 documents (+36.7% mean versus the native machine).
package ruu

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/vm"
)

// Config describes one RUU machine.
type Config struct {
	MachineName string

	FetchWidth  int // instructions fetched per cycle
	DecodeWidth int
	IssueWidth  int
	CommitWidth int
	RUUSize     int // combined window (paper configuration: 64)
	LSQSize     int
	// RenameRegs models the modified sim-outorder of Table 5, where
	// the physical register file is a separate structure: dispatch
	// stalls when in-flight destinations exhaust the pool (per file).
	RenameRegs int

	IntALU   int // generic integer ALUs (4)
	IntMul   int // integer multipliers (1)
	FPALU    int // FP adders (4)
	FPMulDiv int // FP multiply/divide units (1)
	MemPorts int // cache ports (2)

	// Register-file experiments (Figure 2).
	RFReadCycles  int  // register-file read latency (1 = fully bypassed baseline)
	PartialBypass bool // restrict bypassing at 2-cycle read latency

	BrPenalty  int // extra cycles after branch resolution on a mispredict
	GShareBits int // global predictor index bits
	BTBSets    int
	BTBAssoc   int
	RASEntries int

	Hier    cache.HierarchyConfig
	DRAM    dram.Config
	Mapping vm.Mapping
}

// DefaultConfig returns sim-outorder configured as in Section 5.1: a
// 64-entry RUU and LSQ, caches matching the 21264, and a flat
// 62-cycle DRAM.
func DefaultConfig() Config {
	hier := cache.DS10L()
	hier.VictimEntries = 0 // sim-outorder models no victim buffer
	hier.L2.HitLatency = 6 // SimpleScalar's default dl2 hit latency
	return Config{
		MachineName:  "sim-outorder",
		FetchWidth:   4,
		DecodeWidth:  4,
		IssueWidth:   4,
		CommitWidth:  4,
		RUUSize:      64,
		LSQSize:      64,
		IntALU:       4,
		IntMul:       1,
		FPALU:        4,
		FPMulDiv:     1,
		MemPorts:     2,
		RFReadCycles: 1,
		BrPenalty:    2,
		GShareBits:   12,
		BTBSets:      512,
		BTBAssoc:     4,
		RASEntries:   8,
		Hier:         hier,
		DRAM:         flatDRAM(),
		Mapping:      vm.Mapping{Policy: "sequential"},
	}
}

// EightWide returns the 8-way issue configuration used as the
// abstract comparison simulator in the Figure 2 register-file study.
func EightWide() Config {
	cfg := DefaultConfig()
	cfg.MachineName = "abstract-8way"
	cfg.FetchWidth = 8
	cfg.DecodeWidth = 8
	cfg.IssueWidth = 8
	cfg.CommitWidth = 8
	cfg.RUUSize = 128
	cfg.LSQSize = 128
	cfg.IntALU = 8
	cfg.IntMul = 2
	cfg.FPALU = 8
	cfg.FPMulDiv = 2
	cfg.MemPorts = 4
	return cfg
}

// flatDRAM approximates sim-outorder's fixed memory latency:
// closed-page constant timing with enough banks to avoid conflicts.
// The paper used a flat 62 cycles against its 466 MHz hardware; here
// the constant is scaled the same way relative to this repository's
// reference machine (whose tuned controller reaches ~50-cycle page
// hits), preserving the property that the abstract simulator's
// memory is optimistic: no page misses, no bank conflicts, no
// controller queueing.
func flatDRAM() dram.Config {
	return dram.Config{
		Banks:            64,
		RowBytes:         4096,
		RASCycles:        2,
		CASCycles:        4,
		PrechargeCycles:  2,
		TransferCycles:   3,
		ControllerCycles: 2,
		ClockRatio:       4,
		OpenPage:         false,
	}
}

// Check verifies the configuration is runnable and every field is in
// range.
func (c Config) Check() error {
	if err := bounds.Check("ruu",
		bounds.Int{Name: "FetchWidth", V: c.FetchWidth, Lo: 1, Hi: 64},
		bounds.Int{Name: "DecodeWidth", V: c.DecodeWidth, Lo: 1, Hi: 64},
		bounds.Int{Name: "IssueWidth", V: c.IssueWidth, Lo: 1, Hi: 64},
		bounds.Int{Name: "CommitWidth", V: c.CommitWidth, Lo: 1, Hi: 64},
		bounds.Int{Name: "RUUSize", V: c.RUUSize, Lo: 2 * c.FetchWidth, Hi: 4096},
		bounds.Int{Name: "LSQSize", V: c.LSQSize, Lo: 1, Hi: 4096},
		bounds.Int{Name: "RenameRegs", V: c.RenameRegs, Lo: 0, Hi: 4096},
		bounds.Int{Name: "IntALU", V: c.IntALU, Lo: 1, Hi: 64},
		bounds.Int{Name: "IntMul", V: c.IntMul, Lo: 1, Hi: 64},
		bounds.Int{Name: "FPALU", V: c.FPALU, Lo: 1, Hi: 64},
		bounds.Int{Name: "FPMulDiv", V: c.FPMulDiv, Lo: 1, Hi: 64},
		bounds.Int{Name: "MemPorts", V: c.MemPorts, Lo: 1, Hi: 64},
		bounds.Int{Name: "RFReadCycles", V: c.RFReadCycles, Lo: 1, Hi: 64},
		bounds.Int{Name: "BrPenalty", V: c.BrPenalty, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "GShareBits", V: c.GShareBits, Lo: 1, Hi: 20},
		bounds.Int{Name: "BTBSets", V: c.BTBSets, Lo: 1, Hi: 1 << 16},
		bounds.Int{Name: "BTBAssoc", V: c.BTBAssoc, Lo: 1, Hi: 64},
		bounds.Int{Name: "RASEntries", V: c.RASEntries, Lo: 1, Hi: 1024},
	); err != nil {
		return err
	}
	if err := c.Hier.Check(); err != nil {
		return err
	}
	if err := c.DRAM.Check(); err != nil {
		return err
	}
	return c.Mapping.Check()
}

// Name implements core.Machine: a Config is its machine.
func (c Config) Name() string { return c.MachineName }

// Run implements core.Machine. A configuration failing Check is an
// error, never a panic.
func (c Config) Run(w core.Workload) (core.RunResult, error) {
	if err := c.Check(); err != nil {
		return core.RunResult{}, err
	}
	return core.Drive(c.spec(), w)
}

// spec describes the machine to the run driver; its kernel is a
// fresh pipeline (*sim).
func (c Config) spec() core.Spec {
	return core.Spec{
		Machine: c.MachineName,
		Family:  checkpoint.ModelRUU,
		Events:  events.ModelRUU,
		Compat:  c.compat,
		New:     func() core.Kernel { return newSim(c) },
	}
}

type entry struct {
	rec     cpu.Record
	inum    uint64
	cls     isa.Class
	hasDest bool
	destFP  bool
	srcs    [3]uint64
	nsrc    int

	availAt uint64
	mapped  bool
	mapAt   uint64
	issued  bool
	readyAt uint64
	doneAt  uint64
	isMem   bool

	// CPI-stack attribution.
	fetchMiss bool             // delivered by a fetch that missed the I-cache
	memMiss   bool             // load whose data came from beyond the L1
	memComp   events.Component // hierarchy level that served the miss
}

// btb is a small set-associative branch target buffer.
type btb struct {
	sets, assoc int
	tags        []uint64
	targets     []uint64
	valid       []bool
	age         []uint64
	clock       uint64
}

func newBTB(sets, assoc int) *btb {
	n := sets * assoc
	return &btb{sets: sets, assoc: assoc,
		tags: make([]uint64, n), targets: make([]uint64, n),
		valid: make([]bool, n), age: make([]uint64, n)}
}

func (b *btb) lookup(pc uint64) (uint64, bool) {
	set := int(pc>>2) % b.sets
	for w := 0; w < b.assoc; w++ {
		i := set*b.assoc + w
		if b.valid[i] && b.tags[i] == pc {
			b.clock++
			b.age[i] = b.clock
			return b.targets[i], true
		}
	}
	return 0, false
}

func (b *btb) insert(pc, target uint64) {
	set := int(pc>>2) % b.sets
	victim, oldest := set*b.assoc, uint64(1)<<63
	for w := 0; w < b.assoc; w++ {
		i := set*b.assoc + w
		if !b.valid[i] {
			victim = i
			break
		}
		if b.valid[i] && b.tags[i] == pc {
			victim = i
			break
		}
		if b.age[i] < oldest {
			oldest = b.age[i]
			victim = i
		}
	}
	b.clock++
	b.tags[victim] = pc
	b.targets[victim] = target
	b.valid[victim] = true
	b.age[victim] = b.clock
}

type sim struct {
	cfg  Config
	src  cpu.Source
	hier *cache.Hierarchy

	gshare []predict.SatCounter
	ghist  uint32
	btb    *btb
	ras    *predict.RAS

	// ahead is the fetch lookahead, two fetch packets deep.
	ahead cpu.Lookahead

	rob         []entry
	head        int
	count       int
	nextInum    uint64
	headInum    uint64
	lastWriter  [2][isa.NumRegs]uint64
	readyByInum [4096]uint64

	// Scan accelerators: entries dispatch in program order, so the
	// oldest unmapped entry is always at mapInum; everything older
	// than issueBase has issued; and issueIdleUntil lets the issue
	// scan sleep when a full pass proved nothing can become eligible
	// before a known cycle.
	mapInum        uint64
	issueBase      uint64
	issueIdleUntil uint64

	lsqCount    int
	intInFlight int
	fpInFlight  int

	cycle   uint64
	retired uint64

	fetchBlockedUntil uint64
	waitBranch        uint64 // inum of the mispredicted branch fetch waits on; 0 = none
	fpDivBusyUntil    uint64

	// col accumulates typed event counts and CPI-stack attribution
	// (the unified instrumentation layer, internal/events).
	col events.Collector
	// fetchBlockReason remembers why the front end was last stalled so
	// a no-commit cycle can be charged to the right component.
	fetchBlockReason events.Component
	// cur drives interval sampling when the workload requests it
	// (nil — and every call on it a no-op — for full runs).
	cur *core.SampleCursor
	// warmLine is the last I-cache line Warm touched.
	warmLine uint64
}

func newSim(cfg Config) *sim {
	s := &sim{
		cfg:       cfg,
		hier:      cache.NewHierarchy(cfg.Hier, cfg.Mapping.New(), dram.New(cfg.DRAM)),
		gshare:    make([]predict.SatCounter, 1<<cfg.GShareBits),
		btb:       newBTB(cfg.BTBSets, cfg.BTBAssoc),
		ras:       predict.NewRAS(cfg.RASEntries),
		ahead:     cpu.NewLookahead(2 * cfg.FetchWidth),
		rob:       make([]entry, cfg.RUUSize),
		nextInum:  1,
		headInum:  1,
		mapInum:   1,
		issueBase: 1,
		warmLine:  1 << 63,
	}
	for i := range s.gshare {
		s.gshare[i] = predict.NewSatCounter(2, 1)
	}
	return s
}

func (s *sim) predictDir(pc uint64) (bool, int) {
	idx := int((pc>>2)^uint64(s.ghist)) & (len(s.gshare) - 1)
	return s.gshare[idx].Taken(), idx
}

func (s *sim) trainDir(idx int, taken bool) {
	if taken {
		s.gshare[idx].Inc()
	} else {
		s.gshare[idx].Dec()
	}
	s.ghist = s.ghist<<1 | b2u(taken)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (s *sim) inFlight(inum uint64) bool {
	return inum >= s.headInum && inum < s.headInum+uint64(s.count)
}

// idx maps an offset from the window head to a slot index; offsets
// are always < len(rob), so a conditional subtract replaces modulo.
func (s *sim) idx(off int) int {
	off += s.head
	if n := len(s.rob); off >= n {
		off -= n
	}
	return off
}

func (s *sim) at(inum uint64) *entry {
	return &s.rob[s.idx(int(inum-s.headInum))]
}

// Hier implements core.Kernel.
func (s *sim) Hier() *cache.Hierarchy { return s.hier }

// Time implements core.Kernel: the pipeline times src until the
// stream drains and the RUU empties.
func (s *sim) Time(src cpu.Source, cur *core.SampleCursor) (uint64, uint64, *events.Collector, error) {
	s.src, s.cur = src, cur
	err := s.run()
	return s.cycle, s.retired, &s.col, err
}

func (s *sim) run() error {
	const cycleCap = 1 << 34
	for {
		if s.count == 0 && s.ahead.Drained() {
			return nil
		}
		before := s.retired
		s.commit()
		if s.retired == before {
			// Nothing committed this cycle: charge it to the component
			// blocking the head of the window. Cycles that do commit
			// land in the base component (see Collector.Finish).
			s.col.Attribute(s.classifyStall(), 1)
		}
		s.issue()
		s.dispatch()
		s.fetch()
		s.cycle++
		if s.cycle > cycleCap {
			return fmt.Errorf("ruu: cycle cap exceeded (deadlock?)")
		}
	}
}

// blockFetch stalls the front end until the given cycle, recording
// the CPI-stack component responsible when it extends the stall.
func (s *sim) blockFetch(until uint64, why events.Component) {
	if s.fetchBlockedUntil < until {
		s.fetchBlockedUntil = until
		s.fetchBlockReason = why
	}
}

// classifyStall attributes one cycle in which nothing committed to
// the CPI-stack component that caused it, judged from the oldest
// instruction's state — head-of-window stall accounting, the same
// discipline the alpha model uses.
func (s *sim) classifyStall() events.Component {
	if s.count > 0 {
		e := &s.rob[s.head]
		switch {
		case !e.mapped:
			if s.cycle < e.availAt && e.fetchMiss {
				return events.CompICache // still in flight from a missed fetch
			}
			return events.CompFrontend // LSQ/rename/decode pressure
		case !e.issued:
			if comp, ok := s.producerMemStall(e); ok {
				return comp // waiting on an outstanding data miss
			}
			return events.CompBase // dependence or structural issue limit
		default:
			if e.memMiss && s.cycle < e.doneAt {
				return e.memComp // its own data miss is outstanding
			}
			if s.waitBranch != 0 {
				return events.CompBranch // draining behind a mispredict
			}
			return events.CompBase // execution latency
		}
	}
	// Window empty: the front end is refilling.
	if s.cycle < s.fetchBlockedUntil {
		return s.fetchBlockReason
	}
	if s.waitBranch != 0 {
		return events.CompBranch
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

func (s *sim) commit() {
	// Completion times are fixed at issue, and the one completion with
	// a consequence is the mispredicted branch fetch waits on: once it
	// completes, fetch restarts after the recovery penalty.
	if s.waitBranch != 0 {
		if e := s.at(s.waitBranch); e.issued && s.cycle >= e.doneAt {
			s.blockFetch(e.doneAt+uint64(s.cfg.BrPenalty), events.CompBranch)
			s.waitBranch = 0
		}
	}
	// In-order commit.
	n := 0
	for s.count > 0 && n < s.cfg.CommitWidth {
		e := &s.rob[s.head]
		if !e.issued || s.cycle < e.doneAt {
			break
		}
		if e.isMem {
			s.lsqCount--
		}
		if e.hasDest && e.mapped {
			if e.destFP {
				s.fpInFlight--
			} else {
				s.intInFlight--
			}
		}
		s.head = (s.head + 1) % len(s.rob)
		s.count--
		s.headInum++
		s.retired++
		s.cur.OnRetire(s.retired, s.cycle, &s.col)
		n++
	}
	if n > 0 {
		s.issueIdleUntil = 0
	}
}

func (s *sim) srcsReadyAt(e *entry) (uint64, bool) {
	var latest uint64
	for i := 0; i < e.nsrc; i++ {
		p := e.srcs[i]
		if p == 0 {
			continue
		}
		var t uint64
		if s.inFlight(p) {
			pe := s.at(p)
			if !pe.issued {
				return 0, false
			}
			t = pe.readyAt
		} else if e.inum-p < uint64(len(s.readyByInum)) {
			t = s.readyByInum[p%uint64(len(s.readyByInum))]
		} else {
			continue
		}
		// Register-file depth / bypass restriction (Figure 2).
		extra := uint64(s.cfg.RFReadCycles - 1)
		if s.cfg.PartialBypass {
			extra *= 2
		}
		t += extra
		if t > latest {
			latest = t
		}
	}
	return latest, true
}

func (s *sim) issue() {
	if s.cycle < s.issueIdleUntil {
		return
	}
	if s.issueBase < s.headInum {
		s.issueBase = s.headInum
	}
	for s.issueBase < s.headInum+uint64(s.count) && s.at(s.issueBase).issued {
		s.issueBase++
	}
	start := int(s.issueBase - s.headInum)
	end := int(s.mapInum - s.headInum)
	if end > s.count {
		end = s.count
	}
	if start >= end {
		return
	}

	left := s.cfg.IssueWidth
	intALU, intMul := s.cfg.IntALU, s.cfg.IntMul
	fpALU, fpMD := s.cfg.FPALU, s.cfg.FPMulDiv
	mem := s.cfg.MemPorts

	// As in the alpha model: if the whole scan issues nothing, queue
	// state is frozen until a collected wake time, a dispatch, or a
	// commit, and the stage sleeps. Structural skips with no knowable
	// wake time pin the scan awake.
	issuedAny := false
	noSkip := false
	idleUntil := ^uint64(0)
	deferUntil := func(t uint64) {
		if t < idleUntil {
			idleUntil = t
		}
	}

	ix := s.idx(start)
	for i := start; i < end && left > 0; i++ {
		e := &s.rob[ix]
		if ix++; ix == len(s.rob) {
			ix = 0
		}
		if !e.mapped || e.issued {
			continue
		}
		if s.cycle <= e.mapAt {
			deferUntil(e.mapAt + 1)
			continue
		}
		ready, ok := s.srcsReadyAt(e)
		if !ok || ready > s.cycle {
			if ok {
				deferUntil(ready) // unissued producers gate via their own entries
			}
			continue
		}
		lat := e.cls.Latency()
		if e.cls == isa.ClassJump {
			lat = 1 // no deep front end to restart
		}
		switch {
		case e.cls.IsMem():
			if mem == 0 {
				noSkip = true
				continue
			}
			mem--
			res := s.hier.Data(e.rec.EA, e.cls.IsStore(), s.cycle)
			if comp, miss := res.Miss(&s.col); miss && e.cls.IsLoad() {
				e.memMiss, e.memComp = true, comp
			}
			lat = res.Latency + res.WalkCycles
			if e.cls.IsStore() {
				lat = 1
			}
			if e.cls == isa.ClassFPLoad {
				lat++
			}
		case e.cls == isa.ClassIntMul:
			if intMul == 0 {
				noSkip = true
				continue
			}
			intMul--
		case e.cls == isa.ClassFPAdd:
			if fpALU == 0 {
				noSkip = true
				continue
			}
			fpALU--
		case e.cls == isa.ClassFPMul, e.cls == isa.ClassFPDivS, e.cls == isa.ClassFPDivT,
			e.cls == isa.ClassFPSqrtS, e.cls == isa.ClassFPSqrtT:
			if fpMD == 0 {
				noSkip = true
				continue
			}
			if e.cls != isa.ClassFPMul && s.cycle < s.fpDivBusyUntil {
				deferUntil(s.fpDivBusyUntil)
				continue
			}
			if e.cls != isa.ClassFPMul {
				s.fpDivBusyUntil = s.cycle + uint64(lat)
			}
			fpMD--
		default:
			if intALU == 0 {
				noSkip = true
				continue
			}
			intALU--
		}
		left--
		issuedAny = true
		e.issued = true
		e.readyAt = s.cycle + uint64(lat)
		e.doneAt = e.readyAt
		s.readyByInum[e.inum%uint64(len(s.readyByInum))] = e.readyAt
	}
	if !issuedAny && !noSkip {
		s.issueIdleUntil = idleUntil
	}
}

func (s *sim) dispatch() {
	for n := 0; n < s.cfg.DecodeWidth; n++ {
		// Entries dispatch strictly in program order, so the oldest
		// unmapped one is always at mapInum — no scan.
		if s.mapInum >= s.headInum+uint64(s.count) {
			break
		}
		e := s.at(s.mapInum)
		if s.cycle < e.availAt {
			break
		}
		if e.isMem && s.lsqCount >= s.cfg.LSQSize {
			break
		}
		if e.hasDest && s.cfg.RenameRegs > 0 {
			if e.destFP && s.fpInFlight >= s.cfg.RenameRegs {
				break
			}
			if !e.destFP && s.intInFlight >= s.cfg.RenameRegs {
				break
			}
		}
		e.mapped = true
		e.mapAt = s.cycle
		s.mapInum++
		s.issueIdleUntil = 0 // new window entry: the issue scan must look again
		if e.isMem {
			s.lsqCount++
		}
		if e.hasDest {
			if e.destFP {
				s.fpInFlight++
			} else {
				s.intInFlight++
			}
		}
		if e.cls == isa.ClassNop || e.cls == isa.ClassHalt {
			// sim-outorder treats no-ops as single-cycle ALU ops; they
			// retire without occupying function units.
			e.issued = true
			e.readyAt = s.cycle + 1
			e.doneAt = s.cycle + 1
		}
	}
}

func (s *sim) fetch() {
	if s.waitBranch != 0 || s.cycle < s.fetchBlockedUntil {
		return
	}
	s.ahead.Fill(s.src)
	if s.ahead.Len() == 0 {
		return
	}
	if s.count+s.cfg.FetchWidth > len(s.rob) {
		return
	}
	// Fetch up to width, ending at the first taken branch (one fetch
	// redirect per cycle through the BTB). The packet is carved out of
	// the lookahead ring in place.
	n := 1
	for n < s.cfg.FetchWidth && n < s.ahead.Len() {
		prev := s.ahead.At(n - 1)
		if prev.IsBranch() && prev.Taken {
			break
		}
		if s.ahead.At(n).PC != prev.PC+isa.WordBytes {
			break
		}
		n++
	}

	ires, _, _ := s.hier.Inst(s.ahead.At(0).PC, s.cycle)
	deliverAt := s.cycle + 1
	nextFetchAt := s.cycle + 1
	fetchWhy := events.CompFrontend
	if !ires.L1Hit {
		s.col.Count(events.ICacheMisses, 1)
		fetchWhy = events.CompICache
		deliverAt += uint64(ires.Latency + ires.WalkCycles)
		nextFetchAt += uint64(ires.Latency + ires.WalkCycles)
	}

	var bubble uint64
	mispredictIdx := -1
	for i := 0; i < n; i++ {
		rec := s.ahead.At(i)
		op := rec.Inst.Op
		cls := op.Class()
		if !cls.IsBranch() {
			continue
		}
		switch cls {
		case isa.ClassCondBr:
			pred, idx := s.predictDir(rec.PC)
			s.trainDir(idx, rec.Taken)
			if pred != rec.Taken {
				mispredictIdx = i
			} else if rec.Taken {
				// Correct direction: target must come from the BTB.
				if tgt, ok := s.btb.lookup(rec.PC); !ok || tgt != rec.NextPC {
					s.col.Count(events.BTBMisses, 1)
					bubble += uint64(s.cfg.BrPenalty)
				}
				s.btb.insert(rec.PC, rec.NextPC)
			}
		case isa.ClassUncondBr:
			if op == isa.OpBsr {
				s.ras.Push(rec.PC + isa.WordBytes)
			}
			if tgt, ok := s.btb.lookup(rec.PC); !ok || tgt != rec.NextPC {
				s.col.Count(events.BTBMisses, 1)
				bubble += uint64(s.cfg.BrPenalty)
			}
			s.btb.insert(rec.PC, rec.NextPC)
		case isa.ClassJump:
			predicted := false
			if op == isa.OpRet {
				if top, ok := s.ras.Pop(); ok && top == rec.NextPC {
					predicted = true
				} else if tgt, ok := s.btb.lookup(rec.PC); ok && tgt == rec.NextPC {
					// sim-outorder falls back to the BTB for returns.
					predicted = true
				}
			} else {
				if op == isa.OpJsr {
					s.ras.Push(rec.PC + isa.WordBytes)
				}
				if tgt, ok := s.btb.lookup(rec.PC); ok && tgt == rec.NextPC {
					predicted = true
				}
			}
			s.btb.insert(rec.PC, rec.NextPC)
			if !predicted {
				mispredictIdx = i
			}
		}
		if mispredictIdx >= 0 {
			break
		}
	}

	allocated := 0
	for i := 0; i < n; i++ {
		rec := s.ahead.At(i)
		e := s.alloc(rec)
		e.availAt = deliverAt
		e.fetchMiss = !ires.L1Hit
		allocated++
		if i == mispredictIdx {
			// Fetch stops at the mispredicted branch; the rest of the
			// packet stays pending and refetches after recovery.
			s.waitBranch = e.inum
			s.col.Count(events.BrMispredicts, 1)
			break
		}
	}
	s.ahead.Take(allocated)
	nextFetchAt += bubble
	if bubble > 0 && fetchWhy == events.CompFrontend {
		// BTB-miss redirect bubbles are control recovery.
		fetchWhy = events.CompBranch
	}
	s.blockFetch(nextFetchAt, fetchWhy)
}

func (s *sim) alloc(rec *cpu.Record) *entry {
	idx := s.idx(s.count)
	s.count++
	e := &s.rob[idx]
	*e = entry{rec: *rec, inum: s.nextInum, cls: rec.Inst.Op.Class()}
	s.nextInum++
	e.isMem = e.cls.IsMem()
	var srcs [3]isa.RegRef
	for _, src := range srcs[:rec.Inst.SourcesInto(&srcs)] {
		file := 0
		if src.FP {
			file = 1
		}
		if w := s.lastWriter[file][src.Reg]; w != 0 && s.inFlight(w) {
			e.srcs[e.nsrc] = w
			e.nsrc++
		}
	}
	if d, ok := rec.Inst.Dest(); ok {
		e.hasDest = true
		e.destFP = d.FP
		file := 0
		if d.FP {
			file = 1
		}
		s.lastWriter[file][d.Reg] = e.inum
	}
	return e
}
