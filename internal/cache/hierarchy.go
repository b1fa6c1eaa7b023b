package cache

import (
	"repro/internal/bounds"
	"repro/internal/events"
	"repro/internal/mem"
	"repro/internal/vm"
)

// Memory is the main-memory backend under the L2. It is an alias for
// the leaf-package contract (internal/mem) so backends can satisfy it
// without importing the hierarchy: the flat SDRAM model
// (internal/dram) is the default everywhere, and the cycle-accurate
// DDR controller (internal/ddr) is an opt-in per machine config.
type Memory = mem.Memory

// HierarchyConfig describes the full memory system of one machine.
type HierarchyConfig struct {
	L1I Config
	L1D Config
	L2  Config

	VictimEntries int  // L1D victim buffer entries; 0 disables (the vbuf feature)
	VBHitLatency  int  // load-to-use cycles on a victim-buffer hit
	MAFEntries    int  // miss address file entries per file
	SharedMAF     bool // one MAF shared by I, D and L2 (native behavior)

	L1MissOverhead int // cycles between L1 miss detection and L2 probe
	L2BusBeats     int // cycles the L2 channel is occupied per transfer

	ITLBEntries int
	DTLBEntries int
}

// Check validates the three arrays and bounds every other field.
func (c HierarchyConfig) Check() error {
	for _, a := range []Config{c.L1I, c.L1D, c.L2} {
		if err := a.Check(); err != nil {
			return err
		}
	}
	return bounds.Check("cache",
		bounds.Int{Name: "VictimEntries", V: c.VictimEntries, Lo: 0, Hi: 64},
		bounds.Int{Name: "VBHitLatency", V: c.VBHitLatency, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "MAFEntries", V: c.MAFEntries, Lo: 1, Hi: 64},
		bounds.Int{Name: "L1MissOverhead", V: c.L1MissOverhead, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "L2BusBeats", V: c.L2BusBeats, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "ITLBEntries", V: c.ITLBEntries, Lo: 1, Hi: 1024},
		bounds.Int{Name: "DTLBEntries", V: c.DTLBEntries, Lo: 1, Hi: 1024},
	)
}

// DS10L returns the DS-10L memory system from the paper: 64KB 2-way
// 64-byte-block L1 caches with a 3-cycle load-to-use hit, a 2MB
// direct-mapped 64-byte-block L2 with a 13-cycle load-to-use hit, an
// 8-entry victim buffer and 8-entry MAFs.
func DS10L() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{Name: "L1I", SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 2, HitLatency: 1},
		L1D: Config{Name: "L1D", SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 2, HitLatency: 3},
		L2:  Config{Name: "L2", SizeBytes: 2 << 20, BlockBytes: 64, Assoc: 1, HitLatency: 13},

		VictimEntries: 8,
		VBHitLatency:  5,
		MAFEntries:    8,

		L1MissOverhead: 2,
		L2BusBeats:     4,

		ITLBEntries: 128,
		DTLBEntries: 128,
	}
}

// Result reports the outcome and cost of one memory-system access.
type Result struct {
	Latency    int // load-to-use cycles, excluding any TLB walk
	L1Hit      bool
	VBHit      bool
	L2Hit      bool // meaningful only when !L1Hit && !VBHit
	TLBMiss    bool
	WalkCycles int  // page-walk cycles (how they stall is the machine's policy)
	MAFFull    bool // the access stalled on a full miss address file
	PAddr      uint64
}

// Miss counts a data access's L1 D-cache and L2 misses in col. For a
// miss it returns the CPI-stack component a load waiting on the data
// stalls in: CompDCache when the L2 served it, CompL2 when DRAM did.
// An L1 or victim-buffer hit counts nothing and returns false.
func (r Result) Miss(col *events.Collector) (events.Component, bool) {
	if r.L1Hit || r.VBHit {
		return events.CompBase, false
	}
	col.Count(events.DCacheMisses, 1)
	if r.L2Hit {
		return events.CompDCache, true
	}
	col.Count(events.L2Misses, 1)
	return events.CompL2, true
}

// Hierarchy composes the caches, victim buffer, MAFs, TLBs, DRAM and
// the inter-level buses of one machine's memory system.
type Hierarchy struct {
	Cfg  HierarchyConfig
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	VB   *VictimBuffer // nil when disabled
	ITLB *vm.TLB
	DTLB *vm.TLB
	Mem  Memory

	mafI, mafD, mafL2 *MAF
	Mapper            vm.Mapper

	// lastVPage/lastPBase cache the most recent translation. Mapping
	// is first-touch-stable, so replaying a mapped page through the
	// Mapper is pure overhead — and both the timed paths and the
	// functional fast-forward (WarmInst/WarmData) translate runs of
	// same-page addresses. lastVPage starts at an unreachable sentinel.
	lastVPage uint64
	lastPBase uint64

	l2BusFreeAt uint64

	// Prefetches counts I-cache prefetch fills issued.
	Prefetches uint64
}

// NewHierarchy builds a hierarchy from a configuration, a mapping
// policy, and a main-memory backend.
func NewHierarchy(cfg HierarchyConfig, mapper vm.Mapper, mem Memory) *Hierarchy {
	h := &Hierarchy{
		Cfg:       cfg,
		L1I:       New(cfg.L1I),
		L1D:       New(cfg.L1D),
		L2:        New(cfg.L2),
		ITLB:      vm.NewTLB(cfg.ITLBEntries),
		DTLB:      vm.NewTLB(cfg.DTLBEntries),
		Mem:       mem,
		Mapper:    mapper,
		lastVPage: ^uint64(0),
	}
	if cfg.VictimEntries > 0 {
		h.VB = NewVictimBuffer(cfg.VictimEntries)
	}
	if cfg.SharedMAF {
		shared := NewMAF(cfg.MAFEntries)
		h.mafI, h.mafD, h.mafL2 = shared, shared, shared
	} else {
		h.mafI = NewMAF(cfg.MAFEntries)
		h.mafD = NewMAF(cfg.MAFEntries)
		h.mafL2 = NewMAF(cfg.MAFEntries)
	}
	return h
}

// FoldMemEvents folds the hierarchy-owned tallies — the memory
// backend's counters and the prefetch total — into a collector by
// idempotent Set, so the fold can run both mid-run (before a sampling
// snapshot) and at the end of the run without double counting. Every
// timing model calls this instead of reaching into the backend, so
// the counter schema cannot drift between models.
func (h *Hierarchy) FoldMemEvents(c *events.Collector) {
	ms := h.Mem.MemStats()
	c.Set(events.DRAMAccesses, ms.Accesses)
	c.Set(events.DRAMRowHits, ms.RowHits)
	c.Set(events.DRAMBankConflicts, ms.BankConflicts)
	c.Set(events.DRAMQueueWaits, ms.QueueWaits)
	c.Set(events.Prefetches, h.Prefetches)
}

// translate maps a virtual address through the hierarchy's policy,
// short-circuiting repeats of the most recently translated page. The
// cache is filled only after a Mapper call, so first-touch allocation
// order — which the mapping policies depend on — is untouched.
func (h *Hierarchy) translate(vaddr uint64) uint64 {
	vpage := vaddr >> vm.PageBits
	if vpage == h.lastVPage {
		return h.lastPBase | vaddr&vm.PageMask
	}
	paddr := vm.Translate(h.Mapper, vaddr)
	h.lastVPage = vpage
	h.lastPBase = paddr &^ uint64(vm.PageMask)
	return paddr
}

// l2Access runs one access at the L2 and below, returning its
// load-to-use latency from the L2 probe onward. It handles the L2
// bus, the L2 MAF, DRAM, and fills.
func (h *Hierarchy) l2Access(paddr uint64, write bool, now uint64) (lat int, l2Hit bool) {
	t := now
	if h.l2BusFreeAt > t {
		lat += int(h.l2BusFreeAt - t)
		t = h.l2BusFreeAt
	}
	h.l2BusFreeAt = t + uint64(h.Cfg.L2BusBeats)

	if hit, _ := h.L2.Probe(paddr, write); hit {
		return lat + h.Cfg.L2.HitLatency, true
	}
	block := h.L2.Block(paddr)
	if fillAt, ok := h.mafL2.Lookup(block, t); ok {
		// Combine with the in-flight miss.
		return lat + h.Cfg.L2.HitLatency + int(fillAt-t), false
	}
	memLat := h.Mem.Access(paddr, write, t+uint64(h.Cfg.L2.HitLatency))
	total := h.Cfg.L2.HitLatency + memLat
	if stallUntil, ok := h.mafL2.Allocate(block, t, t+uint64(total)); !ok {
		total += int(stallUntil - t)
		h.mafL2.Allocate(block, stallUntil, t+uint64(total))
	}
	h.L2.Insert(paddr, write)
	return lat + total, false
}

// Data performs one data access (load or store) beginning at now and
// returns its cost and classification.
func (h *Hierarchy) Data(vaddr uint64, write bool, now uint64) Result {
	var res Result
	paddr := h.translate(vaddr)
	res.PAddr = paddr
	if !h.DTLB.Lookup(vaddr) {
		res.TLBMiss = true
		res.WalkCycles = h.walk(vaddr, now)
	}
	block := h.L1D.Block(paddr)
	// A block whose miss is still in flight is in the cache array
	// (fills are modeled eagerly) but its data has not arrived:
	// combine with the outstanding miss.
	if fillAt, ok := h.mafD.Lookup(block, now); ok {
		h.L1D.Probe(paddr, write) // keep LRU and dirty state honest
		res.Latency = int(fillAt - now)
		if res.Latency < h.Cfg.L1D.HitLatency {
			res.Latency = h.Cfg.L1D.HitLatency
		}
		return res
	}
	if hit, _ := h.L1D.Probe(paddr, write); hit {
		res.L1Hit = true
		res.Latency = h.Cfg.L1D.HitLatency
		return res
	}
	if h.VB != nil {
		if hit, dirty := h.VB.Probe(block); hit {
			res.VBHit = true
			res.Latency = h.Cfg.VBHitLatency
			h.insertL1D(paddr, dirty || write)
			return res
		}
	}
	// A full miss file delays the start of the access until an entry
	// frees (the mbox-trap condition); it does not extend the fill,
	// because DRAM serialization is already modeled by the banks.
	t := now
	var total int
	if full, freeAt := h.mafD.Full(t); full {
		res.MAFFull = true
		total += int(freeAt - t)
		t = freeAt
	}
	// The L1 miss overhead delays when the L2 sees the probe, but the
	// paper's 13-cycle L2 load-to-use already covers it.
	lat, l2Hit := h.l2Access(paddr, write, t+uint64(h.Cfg.L1MissOverhead))
	res.L2Hit = l2Hit
	total += lat
	if !h.Cfg.SharedMAF {
		// Per-cache file: this miss also occupies a data-side entry
		// until its fill returns. (With a shared file the entry was
		// already taken inside l2Access.)
		h.mafD.Allocate(block, t, t+uint64(lat))
	}
	h.insertL1D(paddr, write)
	res.Latency = total
	return res
}

// insertL1D fills a block into the L1D, spilling the victim into the
// victim buffer and write-backs into the L2.
func (h *Hierarchy) insertL1D(paddr uint64, dirty bool) {
	victim, ok, victimDirty := h.L1D.Insert(paddr, dirty)
	if !ok {
		return
	}
	if h.VB != nil {
		if disp, dispDirty, dispOK := h.VB.Insert(victim, victimDirty); dispOK && dispDirty {
			h.L2.Insert(disp, true)
		}
		return
	}
	if victimDirty {
		h.L2.Insert(victim, true)
	}
}

// Inst performs one instruction fetch probe for the packet at vaddr.
// It returns the access result plus the I-cache set and hitting way,
// which the front end needs for way prediction.
func (h *Hierarchy) Inst(vaddr uint64, now uint64) (Result, int, uint8) {
	var res Result
	paddr := h.translate(vaddr)
	res.PAddr = paddr
	if !h.ITLB.Lookup(vaddr) {
		res.TLBMiss = true
		res.WalkCycles = h.walk(vaddr, now)
	}
	set := h.L1I.Set(paddr)
	block := h.L1I.Block(paddr)
	t := now
	if fillAt, ok := h.mafI.Lookup(block, t); ok {
		h.L1I.Probe(paddr, false)
		res.Latency = int(fillAt - t)
		if res.Latency < h.Cfg.L1I.HitLatency {
			res.Latency = h.Cfg.L1I.HitLatency
		}
		_, way := h.L1I.Peek(paddr)
		return res, set, uint8(way)
	}
	if hit, way := h.L1I.Probe(paddr, false); hit {
		res.L1Hit = true
		res.Latency = h.Cfg.L1I.HitLatency
		return res, set, uint8(way)
	}
	var total int
	if full, freeAt := h.mafI.Full(t); full {
		res.MAFFull = true
		total += int(freeAt - t)
		t = freeAt
	}
	lat, l2Hit := h.l2Access(paddr, false, t+uint64(h.Cfg.L1MissOverhead))
	res.L2Hit = l2Hit
	total += lat
	if !h.Cfg.SharedMAF {
		h.mafI.Allocate(block, t, t+uint64(lat))
	}
	h.L1I.Insert(paddr, false)
	_, way := h.L1I.Peek(paddr)
	res.Latency = total
	return res, set, uint8(way)
}

// PrefetchInst issues a hardware instruction prefetch for the line at
// vaddr (the 21264 prefetches up to four lines on an I-miss). The
// fill consumes MAF and bus resources but stalls nothing.
func (h *Hierarchy) PrefetchInst(vaddr uint64, now uint64) {
	paddr := h.translate(vaddr)
	if hit, _ := h.L1I.Peek(paddr); hit {
		return
	}
	block := h.L1I.Block(paddr)
	if _, ok := h.mafI.Lookup(block, now); ok {
		return
	}
	lat, _ := h.l2Access(paddr, false, now+uint64(h.Cfg.L1MissOverhead))
	total := h.Cfg.L1MissOverhead + lat
	if _, ok := h.mafI.Allocate(block, now, now+uint64(total)); !ok {
		return // no free MAF entry: drop the prefetch
	}
	h.Prefetches++
	h.L1I.Insert(paddr, false)
}

// walk charges the cost of a hardware page-table walk: WalkLevels
// dependent PTE reads served by the L2 and DRAM.
func (h *Hierarchy) walk(vaddr uint64, now uint64) int {
	total := 0
	t := now
	for _, pte := range vm.WalkAddrs(vaddr) {
		lat, _ := h.l2Access(pte, false, t)
		total += lat
		t += uint64(lat)
	}
	return total
}

// WarmInst performs one state-only instruction-side access: TLB and
// cache-array contents, LRU and fills update exactly as a timed fetch
// would, but none of the timing machinery (MAFs, the L2 bus, DRAM
// banks, the prefetcher) is touched and no latency is charged.
// Sampled simulation warms the hierarchy through functional skips
// with these; going through the timed paths instead would queue
// thousands of same-cycle accesses, dragging bank and miss-file
// state far into the future and poisoning the next measured window.
// It reports whether the access missed in the L1 I-cache, so callers
// can mirror miss-triggered side effects (the hardware prefetcher) in
// warm state.
func (h *Hierarchy) WarmInst(vaddr uint64) bool {
	paddr := h.translate(vaddr)
	h.ITLB.Lookup(vaddr) // inserts on miss
	if hit, _ := h.L1I.Probe(paddr, false); hit {
		return false
	}
	if hit, _ := h.L2.Probe(paddr, false); !hit {
		h.L2.Insert(paddr, false)
	}
	h.L1I.Insert(paddr, false)
	return true
}

// InstPlacement reports the I-cache set indexed by vaddr and the way
// currently holding its line (way 0 when the line is not resident),
// without touching replacement state. Functional warming uses it to
// train the way predictor as the timed front end does.
func (h *Hierarchy) InstPlacement(vaddr uint64) (int, uint8) {
	paddr := h.translate(vaddr)
	_, way := h.L1I.Peek(paddr)
	return h.L1I.Set(paddr), uint8(way)
}

// WarmPrefetchInst is PrefetchInst's state-only counterpart: the line
// at vaddr lands in the I-side arrays exactly as a hardware prefetch
// fill would — no TLB fill, no LRU touch when the line is already
// resident — with none of the timing machinery. Functional warming
// uses it to mirror the miss-triggered sequential prefetches a timed
// run performs, keeping warmed cache contents (including prefetch
// pollution) aligned with timed history.
func (h *Hierarchy) WarmPrefetchInst(vaddr uint64) {
	paddr := h.translate(vaddr)
	if hit, _ := h.L1I.Peek(paddr); hit {
		return
	}
	if hit, _ := h.L2.Probe(paddr, false); !hit {
		h.L2.Insert(paddr, false)
	}
	h.L1I.Insert(paddr, false)
}

// WarmData is WarmInst's data-side counterpart, including the victim
// buffer and dirty-state bookkeeping of a real access.
func (h *Hierarchy) WarmData(vaddr uint64, write bool) {
	paddr := h.translate(vaddr)
	h.DTLB.Lookup(vaddr) // inserts on miss
	if hit, _ := h.L1D.Probe(paddr, write); hit {
		return
	}
	if h.VB != nil {
		if hit, dirty := h.VB.Probe(h.L1D.Block(paddr)); hit {
			h.insertL1D(paddr, dirty || write)
			return
		}
	}
	if hit, _ := h.L2.Probe(paddr, write); !hit {
		h.L2.Insert(paddr, write)
	}
	h.insertL1D(paddr, write)
}
