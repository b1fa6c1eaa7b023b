package cache

import (
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "t", SizeBytes: 1024, BlockBytes: 64, Assoc: 2, HitLatency: 3}
}

func TestCacheHitMiss(t *testing.T) {
	c := New(small())
	if hit, _ := c.Probe(0x100, false); hit {
		t.Fatal("cold probe hit")
	}
	c.Insert(0x100, false)
	if hit, _ := c.Probe(0x100, false); !hit {
		t.Fatal("warm probe missed")
	}
	// Same block, different offset.
	if hit, _ := c.Probe(0x13f, false); !hit {
		t.Fatal("same-block probe missed")
	}
	// Next block misses.
	if hit, _ := c.Probe(0x140, false); hit {
		t.Fatal("next-block probe hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(small()) // 8 sets, 2 ways
	setStride := uint64(c.Cfg().Sets() * c.Cfg().BlockBytes)
	a, b, d := uint64(0), setStride, 2*setStride // all map to set 0
	c.Insert(a, false)
	c.Insert(b, false)
	c.Probe(a, false) // a most recent
	victim, ok, _ := c.Insert(d, false)
	if !ok || victim != b {
		t.Fatalf("victim = %#x, %v; want %#x", victim, ok, b)
	}
	if hit, _ := c.Peek(a); !hit {
		t.Error("a evicted despite being MRU")
	}
	if hit, _ := c.Peek(b); hit {
		t.Error("b still resident")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := New(small())
	setStride := uint64(c.Cfg().Sets() * c.Cfg().BlockBytes)
	c.Insert(0, false)
	c.Probe(0, true) // dirty it
	c.Insert(setStride, false)
	_, ok, dirty := c.Insert(2*setStride, false) // evicts block 0 (LRU)
	if !ok || !dirty {
		t.Fatalf("expected dirty victim, got ok=%v dirty=%v", ok, dirty)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestCacheInsertResident(t *testing.T) {
	c := New(small())
	c.Insert(0x100, false)
	_, ok, _ := c.Insert(0x100, true)
	if ok {
		t.Fatal("re-insert evicted something")
	}
	// Now dirty.
	setStride := uint64(c.Cfg().Sets() * c.Cfg().BlockBytes)
	c.Insert(0x100+setStride, false)
	_, _, dirty := c.Insert(0x100+2*setStride, false)
	if !dirty {
		t.Error("re-insert with dirty=true did not mark dirty")
	}
}

func TestCacheStatsAndMissRate(t *testing.T) {
	c := New(small())
	c.Probe(0, false)
	c.Insert(0, false)
	c.Probe(0, false)
	if c.Stats.Accesses != 2 || c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty miss rate not 0")
	}
}

func TestCachePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad config")
		}
	}()
	New(Config{})
}

// Property: after Insert(addr), Peek(addr) always hits, and the
// number of resident blocks in a set never exceeds associativity.
func TestQuickCacheResidency(t *testing.T) {
	c := New(small())
	f := func(addr uint64) bool {
		addr %= 1 << 20
		c.Insert(addr, false)
		hit, _ := c.Peek(addr)
		return hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestVictimBuffer(t *testing.T) {
	v := NewVictimBuffer(2)
	if hit, _ := v.Probe(0x100); hit {
		t.Fatal("empty VB hit")
	}
	v.Insert(0x100, true)
	if hit, dirty := v.Probe(0x100); !hit || !dirty {
		t.Fatalf("VB probe = %v, %v", hit, dirty)
	}
	// Probe removes the entry.
	if hit, _ := v.Probe(0x100); hit {
		t.Fatal("VB entry not consumed by hit")
	}
}

func TestVictimBufferDisplacement(t *testing.T) {
	v := NewVictimBuffer(2)
	v.Insert(0x000, true)
	v.Insert(0x040, false)
	disp, dirty, ok := v.Insert(0x080, false) // displaces 0x000
	if !ok || disp != 0x000 || !dirty {
		t.Fatalf("displaced = %#x, dirty=%v, ok=%v", disp, dirty, ok)
	}
	if hit, _ := v.Probe(0x040); !hit {
		t.Error("younger entry displaced")
	}
}

func TestMAFCombine(t *testing.T) {
	m := NewMAF(2)
	if _, ok := m.Lookup(0x100, 10); ok {
		t.Fatal("empty MAF combined")
	}
	if _, ok := m.Allocate(0x100, 10, 110); !ok {
		t.Fatal("allocate failed with free entries")
	}
	if fillAt, ok := m.Lookup(0x100, 50); !ok || fillAt != 110 {
		t.Fatalf("combine = %d, %v", fillAt, ok)
	}
	// After the fill completes, no combine.
	if _, ok := m.Lookup(0x100, 111); ok {
		t.Fatal("combined with completed miss")
	}
	if m.Combines != 1 {
		t.Errorf("combines = %d", m.Combines)
	}
}

func TestMAFFull(t *testing.T) {
	m := NewMAF(2)
	m.Allocate(0x000, 0, 100)
	m.Allocate(0x040, 0, 200)
	stallUntil, ok := m.Allocate(0x080, 0, 300)
	if ok {
		t.Fatal("allocate succeeded on full MAF")
	}
	if stallUntil != 100 {
		t.Errorf("stallUntil = %d, want 100", stallUntil)
	}
	if m.FullStalls != 1 {
		t.Errorf("FullStalls = %d", m.FullStalls)
	}
	// After the earliest fill completes, allocation succeeds.
	if _, ok := m.Allocate(0x080, 100, 300); !ok {
		t.Fatal("allocate failed after entry freed")
	}
}
