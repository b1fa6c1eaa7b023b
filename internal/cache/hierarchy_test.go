package cache

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/events"
	"repro/internal/vm"
)

func newHier() *Hierarchy {
	return NewHierarchy(DS10L(), &vm.SeqMapper{}, dram.New(dram.DS10LConfig()))
}

// identity pre-touches pages 0..n in ascending order so that the
// sequential mapper assigns frame i to page i, making physical
// conflict placement predictable in tests.
func identity(h *Hierarchy, n int) {
	for i := 0; i < n; i++ {
		h.Mapper.Frame(uint64(i))
	}
}

func TestDataL1Hit(t *testing.T) {
	h := newHier()
	cold := h.Data(0x1000, false, 0)
	if cold.L1Hit {
		t.Fatal("cold access hit L1")
	}
	// At cycle 100 the fill is still in flight: the access combines
	// with the outstanding miss rather than hitting.
	inflight := h.Data(0x1000, false, 100)
	if inflight.L1Hit {
		t.Fatalf("in-flight access reported as hit: %+v", inflight)
	}
	warm := h.Data(0x1000, false, 1000)
	if !warm.L1Hit || warm.Latency != h.Cfg.L1D.HitLatency {
		t.Fatalf("warm access = %+v", warm)
	}
}

func TestLatencyOrdering(t *testing.T) {
	h := newHier()
	identity(h, 64)
	// Cold access: L2 miss -> DRAM.
	cold := h.Data(0x10000, false, 0)
	if cold.L2Hit || cold.L1Hit {
		t.Fatalf("cold = %+v", cold)
	}
	// Evict the block from the L1D, and then from the victim buffer,
	// with blocks at the L1D's set stride: they share its L1D set but
	// not its L2 set, so the L2 stays warm. Filling the set evicts it
	// into the victim buffer; as many evictions again push it out.
	l1SetStride := uint64(h.Cfg.L1D.Sets() * h.Cfg.L1D.BlockBytes)
	for k := 1; k <= h.Cfg.L1D.Assoc+h.Cfg.VictimEntries; k++ {
		h.Data(0x10000+uint64(k)*l1SetStride, false, uint64(k)*500)
	}
	l2hit := h.Data(0x10000, false, 10_000)
	if !l2hit.L2Hit {
		t.Fatalf("expected L2 hit, got %+v", l2hit)
	}
	warm := h.Data(0x10000, false, 20_000)
	if !warm.L1Hit {
		t.Fatalf("expected L1 hit, got %+v", warm)
	}
	if !(warm.Latency < l2hit.Latency && l2hit.Latency < cold.Latency) {
		t.Errorf("latencies not ordered: L1=%d L2=%d mem=%d",
			warm.Latency, l2hit.Latency, cold.Latency)
	}
	if l2hit.Latency < h.Cfg.L2.HitLatency {
		t.Errorf("L2 hit latency %d below configured %d", l2hit.Latency, h.Cfg.L2.HitLatency)
	}
}

func TestVictimBufferPath(t *testing.T) {
	h := newHier()
	identity(h, 64)
	l1SetStride := uint64(h.Cfg.L1D.Sets() * h.Cfg.L1D.BlockBytes)
	// Fill set 0 with three conflicting blocks; first gets evicted to VB.
	h.Data(0, false, 0)
	h.Data(l1SetStride, false, 1000)
	h.Data(2*l1SetStride, false, 2000)
	res := h.Data(0, false, 3000) // should hit the victim buffer
	if !res.VBHit {
		t.Fatalf("expected VB hit, got %+v", res)
	}
	if res.Latency != h.Cfg.VBHitLatency {
		t.Errorf("VB latency = %d, want %d", res.Latency, h.Cfg.VBHitLatency)
	}
}

func TestNoVictimBuffer(t *testing.T) {
	cfg := DS10L()
	cfg.VictimEntries = 0
	h := NewHierarchy(cfg, &vm.SeqMapper{}, dram.New(dram.DS10LConfig()))
	identity(h, 64)
	l1SetStride := uint64(cfg.L1D.Sets() * cfg.L1D.BlockBytes)
	// Base 0x4000 keeps the conflict set clear of the L2 sets that
	// page-table-entry reads occupy.
	base := uint64(0x4000)
	h.Data(base, false, 0)
	h.Data(base+l1SetStride, false, 1000)
	h.Data(base+2*l1SetStride, false, 2000)
	res := h.Data(base, false, 3000)
	if res.VBHit {
		t.Fatal("VB hit with victim buffer disabled")
	}
	if !res.L2Hit {
		t.Fatalf("evicted block should hit L2: %+v", res)
	}
}

func TestMAFCombiningData(t *testing.T) {
	h := newHier()
	a := h.Data(0x40000, false, 0)
	// Second access to the same block while the miss is in flight.
	b := h.Data(0x40040-0x40, false, 5)
	if b.Latency >= a.Latency {
		t.Errorf("combined access latency %d not below original %d", b.Latency, a.Latency)
	}
	if h.mafD.Combines != 1 {
		t.Errorf("combines = %d, want 1", h.mafD.Combines)
	}
}

func TestTLBWalkCharged(t *testing.T) {
	h := newHier()
	res := h.Data(0x50000, false, 0)
	if !res.TLBMiss || res.WalkCycles <= 0 {
		t.Fatalf("first touch should walk: %+v", res)
	}
	res2 := h.Data(0x50008, false, 1000)
	if res2.TLBMiss {
		t.Fatalf("second touch of page missed TLB: %+v", res2)
	}
}

func TestInstFetchAndWay(t *testing.T) {
	h := newHier()
	res, set, way := h.Inst(0x10000, 0)
	if res.L1Hit {
		t.Fatal("cold fetch hit")
	}
	res2, set2, way2 := h.Inst(0x10000, 1000)
	if !res2.L1Hit {
		t.Fatal("warm fetch missed")
	}
	if set != set2 || way != way2 {
		t.Errorf("set/way unstable: %d/%d vs %d/%d", set, way, set2, way2)
	}
}

func TestPrefetchInstFillsCache(t *testing.T) {
	h := newHier()
	h.PrefetchInst(0x20000, 0)
	res, _, _ := h.Inst(0x20000, 1000)
	if !res.L1Hit {
		t.Fatalf("prefetched line missed: %+v", res)
	}
	if h.Prefetches != 1 {
		t.Errorf("prefetches = %d", h.Prefetches)
	}
}

func TestSharedMAFContention(t *testing.T) {
	cfg := DS10L()
	cfg.SharedMAF = true
	cfg.MAFEntries = 2
	h := NewHierarchy(cfg, &vm.SeqMapper{}, dram.New(dram.DS10LConfig()))
	// Two outstanding data misses fill the shared MAF; an instruction
	// miss at the same instant must stall for a free entry.
	h.Data(0x100000, false, 0)
	h.Data(0x200000, false, 0)
	res, _, _ := h.Inst(0x300000, 0)
	if !res.MAFFull {
		t.Fatalf("expected shared-MAF stall, got %+v", res)
	}
}

func TestPageColoringChangesPhysicalLayout(t *testing.T) {
	seq := NewHierarchy(DS10L(), &vm.SeqMapper{}, dram.New(dram.DS10LConfig()))
	col := NewHierarchy(DS10L(), &vm.ColorMapper{Colors: 128}, dram.New(dram.DS10LConfig()))
	va := uint64(37 * vm.PageSize)
	seq.Data(0x1000, false, 0) // consume a frame first so layouts diverge
	a := seq.Data(va, false, 100).PAddr
	b := col.Data(va, false, 100).PAddr
	if a == b {
		t.Errorf("mapping policies produced identical physical addresses %#x", a)
	}
}

func TestStoreMarksDirtyCausingWriteback(t *testing.T) {
	h := newHier()
	identity(h, 128)
	l1SetStride := uint64(h.Cfg.L1D.Sets() * h.Cfg.L1D.BlockBytes)
	h.Data(0, true, 0) // store: dirty block
	h.Data(l1SetStride, false, 1000)
	h.Data(2*l1SetStride, false, 2000) // evicts dirty block into VB
	// Displace it out of the VB with more evictions.
	for i := 3; i < 12; i++ {
		h.Data(uint64(i)*l1SetStride, false, uint64(3000+i*100))
	}
	if h.L1D.Stats.Writebacks == 0 {
		t.Error("no writebacks recorded after dirty eviction chain")
	}
}

// TestResultMiss pins the one miss tally every kernel uses: an L1 or
// victim-buffer hit counts nothing, an L1 miss counts one D-cache miss
// and stalls a load in dcache, and an L2 miss also counts one L2 miss
// and stalls it in l2.
func TestResultMiss(t *testing.T) {
	cases := []struct {
		name       string
		r          Result
		comp       events.Component
		miss       bool
		dcache, l2 uint64
	}{
		{"l1 hit", Result{L1Hit: true}, events.CompBase, false, 0, 0},
		{"victim hit", Result{VBHit: true}, events.CompBase, false, 0, 0},
		{"l2 hit", Result{L2Hit: true}, events.CompDCache, true, 1, 0},
		{"l2 miss", Result{}, events.CompL2, true, 1, 1},
	}
	for _, c := range cases {
		var col events.Collector
		comp, miss := c.r.Miss(&col)
		if comp != c.comp || miss != c.miss {
			t.Errorf("%s: Miss = %v, %v; want %v, %v", c.name, comp.Name(), miss, c.comp.Name(), c.miss)
		}
		if d, l := col.Get(events.DCacheMisses), col.Get(events.L2Misses); d != c.dcache || l != c.l2 {
			t.Errorf("%s: counted %d D-cache and %d L2 misses, want %d and %d", c.name, d, l, c.dcache, c.l2)
		}
	}
}
