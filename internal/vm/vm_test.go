package vm

import (
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite64(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 0xdeadbeefcafef00d)
	if got := m.Read64(0x1000); got != 0xdeadbeefcafef00d {
		t.Fatalf("Read64 = %#x", got)
	}
	if got := m.Read64(0x2000); got != 0 {
		t.Fatalf("untouched Read64 = %#x, want 0", got)
	}
	// Little-endian byte order.
	if got := m.Byte(0x1000); got != 0x0d {
		t.Fatalf("low byte = %#x, want 0x0d", got)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(PageSize - 3)
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Fatalf("straddling Read64 = %#x", got)
	}
	if m.TouchedPages() != 2 {
		t.Fatalf("TouchedPages = %d, want 2", m.TouchedPages())
	}
}

func TestMemory32(t *testing.T) {
	m := NewMemory()
	m.Write32(0x10, 0xaabbccdd)
	if got := m.Read32(0x10); got != 0xaabbccdd {
		t.Fatalf("Read32 = %#x", got)
	}
	m.Write64(0x20, 0x1111111122222222)
	if got := m.Read32(0x20); got != 0x22222222 {
		t.Fatalf("low Read32 = %#x", got)
	}
	if got := m.Read32(0x24); got != 0x11111111 {
		t.Fatalf("high Read32 = %#x", got)
	}
}

// Property: a 64-bit write followed by a read returns the value, at
// any alignment.
func TestQuickMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64) bool {
		addr %= 1 << 30
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSetBytes(t *testing.T) {
	m := NewMemory()
	m.SetBytes(100, []byte{1, 2, 3, 4})
	for i := uint64(0); i < 4; i++ {
		if got := m.Byte(100 + i); got != byte(i+1) {
			t.Fatalf("byte %d = %d", i, got)
		}
	}
}

func TestSeqMapper(t *testing.T) {
	var s SeqMapper
	f0 := s.Frame(100)
	f1 := s.Frame(200)
	f2 := s.Frame(100)
	if f0 != 0 || f1 != 1 || f2 != f0 {
		t.Fatalf("frames = %d %d %d", f0, f1, f2)
	}
}

func TestColorMapperPreservesColor(t *testing.T) {
	c := &ColorMapper{Colors: 128}
	seen := map[uint64]bool{}
	for vp := uint64(0); vp < 1000; vp += 7 {
		f := c.Frame(vp)
		if f%c.Colors != vp%c.Colors {
			t.Fatalf("vpage %d color %d got frame %d color %d", vp, vp%c.Colors, f, f%c.Colors)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	// Stable on re-lookup.
	if c.Frame(7) != c.Frame(7) {
		t.Fatal("ColorMapper not stable")
	}
}

func TestHashMapperDeterministicAndUnique(t *testing.T) {
	a := &HashMapper{Seed: 42}
	b := &HashMapper{Seed: 42}
	seen := map[uint64]bool{}
	for vp := uint64(0); vp < 2000; vp++ {
		fa, fb := a.Frame(vp), b.Frame(vp)
		if fa != fb {
			t.Fatalf("vpage %d: %d vs %d", vp, fa, fb)
		}
		if seen[fa] {
			t.Fatalf("frame %d reused", fa)
		}
		seen[fa] = true
	}
	c := &HashMapper{Seed: 43}
	diff := 0
	for vp := uint64(0); vp < 100; vp++ {
		if c.Frame(vp) != a.Frame(vp) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical mappings")
	}
}

// TestMappingBuildsNamedPolicy checks that a Mapping's Policy is the
// built Mapper's Name (checkpoint compat strings hash that name), and
// that a degenerate mapping fails Check instead of panicking later.
func TestMappingBuildsNamedPolicy(t *testing.T) {
	for _, m := range []Mapping{
		{Policy: "sequential"},
		{Policy: "page-colored", Colors: 256},
		{Policy: "hashed", Seed: 12345},
	} {
		if err := m.Check(); err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got := m.New().Name(); got != m.Policy {
			t.Errorf("%+v builds mapper %q", m, got)
		}
	}
	if h, ok := (Mapping{Policy: "hashed", Seed: 7}).New().(*HashMapper); !ok || h.Seed != 7 {
		t.Errorf("hashed mapping lost its seed: %#v", h)
	}
	for _, bad := range []Mapping{
		{},
		{Policy: "random"},
		{Policy: "page-colored"},
		{Policy: "page-colored", Colors: 3},
		{Policy: "page-colored", Colors: 1 << 40},
	} {
		if err := bad.Check(); err == nil {
			t.Errorf("%+v passed Check", bad)
		}
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	var s SeqMapper
	va := uint64(5*PageSize + 1234)
	pa := Translate(&s, va)
	if pa&PageMask != 1234 {
		t.Fatalf("offset lost: %#x", pa)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Lookup(0x1000) {
		t.Fatal("first lookup hit")
	}
	if !tlb.Lookup(0x1008) {
		t.Fatal("same-page lookup missed")
	}
	// Fill and evict round-robin.
	for i := 1; i <= 4; i++ {
		tlb.Lookup(uint64(i) * PageSize * 2)
	}
	if tlb.Lookup(0x1000) {
		t.Fatal("evicted entry hit")
	}
	if tlb.Hits != 1 || tlb.Misses != 6 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTLB(0) did not panic")
		}
	}()
	NewTLB(0)
}

func TestWalkAddrs(t *testing.T) {
	a := WalkAddrs(0x12345678)
	b := WalkAddrs(0x12345678 + 4) // same page, same walk
	if a != b {
		t.Fatal("walk differs within a page")
	}
	c := WalkAddrs(0x12345678 + PageSize)
	if a[WalkLevels-1] == c[WalkLevels-1] {
		t.Fatal("leaf PTE identical across pages")
	}
	// Upper levels shared for nearby pages.
	if a[0] != c[0] {
		t.Fatal("root PTE differs for nearby pages")
	}
	for i := 0; i < WalkLevels; i++ {
		if a[i] < ptBase {
			t.Fatalf("level %d address %#x below page-table region", i, a[i])
		}
	}
}
