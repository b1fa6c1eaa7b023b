// Package vm provides the memory substrate shared by the functional
// and timing simulators: a sparse virtual memory image, virtual-to-
// physical page mapping policies, a TLB model, and the multi-level
// page-table walk the 21264 performs on TLB misses.
//
// The paper identifies virtual-to-physical page mapping as a dominant
// source of unresolvable macrobenchmark error: DRAM and L2 behavior
// depend on the physical address stream, which depends on mappings
// the simulator cannot reproduce. This package therefore makes the
// mapping policy explicit and pluggable (sequential first-touch,
// OS page coloring, pseudo-random), so the reference machine and the
// simulators can legitimately disagree the way real systems do.
package vm

import "fmt"

// PageBits is log2 of the page size (8 KB, as on Alpha).
const PageBits = 13

// PageSize is the virtual memory page size in bytes.
const PageSize = 1 << PageBits

// PageMask extracts the offset within a page.
const PageMask = PageSize - 1

// WalkLevels is the depth of the page-table radix tree walked on a
// TLB miss (the paper's "five levels of page tables").
const WalkLevels = 5

// Memory is a sparse, byte-addressable virtual memory image. The zero
// value is an empty memory; reads of untouched locations return zero.
type Memory struct {
	pages map[uint64]*[PageSize]byte
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(vpage uint64, create bool) *[PageSize]byte {
	if p, ok := m.pages[vpage]; ok {
		return p
	}
	if !create {
		return nil
	}
	p := new([PageSize]byte)
	m.pages[vpage] = p
	return p
}

// Byte returns the byte at addr.
func (m *Memory) Byte(addr uint64) byte {
	p := m.page(addr>>PageBits, false)
	if p == nil {
		return 0
	}
	return p[addr&PageMask]
}

// SetByte stores one byte at addr.
func (m *Memory) SetByte(addr uint64, v byte) {
	m.page(addr>>PageBits, true)[addr&PageMask] = v
}

// Read64 returns the little-endian 64-bit word at addr. The access
// may straddle a page boundary.
func (m *Memory) Read64(addr uint64) uint64 {
	if addr&PageMask <= PageSize-8 {
		p := m.page(addr>>PageBits, false)
		if p == nil {
			return 0
		}
		off := addr & PageMask
		var v uint64
		for i := uint64(0); i < 8; i++ {
			v |= uint64(p[off+i]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.Byte(addr+i)) << (8 * i)
	}
	return v
}

// Write64 stores a little-endian 64-bit word at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	if addr&PageMask <= PageSize-8 {
		p := m.page(addr>>PageBits, true)
		off := addr & PageMask
		for i := uint64(0); i < 8; i++ {
			p[off+i] = byte(v >> (8 * i))
		}
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.SetByte(addr+i, byte(v>>(8*i)))
	}
}

// Read32 returns the little-endian 32-bit word at addr.
func (m *Memory) Read32(addr uint64) uint32 {
	var v uint32
	for i := uint64(0); i < 4; i++ {
		v |= uint32(m.Byte(addr+i)) << (8 * i)
	}
	return v
}

// Write32 stores a little-endian 32-bit word at addr.
func (m *Memory) Write32(addr uint64, v uint32) {
	for i := uint64(0); i < 4; i++ {
		m.SetByte(addr+i, byte(v>>(8*i)))
	}
}

// SetBytes copies b into memory starting at addr, one page lookup
// and one copy per page the span touches. Like SetByte it allocates
// every page it writes, zero bytes included, and the address wraps
// past the top of the 64-bit space.
func (m *Memory) SetBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(addr>>PageBits, true)[addr&PageMask:], b)
		addr += uint64(n)
		b = b[n:]
	}
}

// TouchedPages returns how many distinct pages have been written.
func (m *Memory) TouchedPages() int { return len(m.pages) }

// Mapper assigns physical page frames to virtual pages. Frame numbers
// are dense small integers; physical addresses are frame<<PageBits |
// offset. Implementations must be deterministic for reproducibility.
type Mapper interface {
	// Frame returns the physical frame for a virtual page number,
	// allocating one on first touch.
	Frame(vpage uint64) uint64
	// Name identifies the policy in reports.
	Name() string
}

// SeqMapper allocates frames in first-touch order, the behavior of
// simulators (like sim-alpha) that do not model OS page placement.
// The zero value is ready to use.
type SeqMapper struct {
	frames map[uint64]uint64
	next   uint64
}

// Frame implements Mapper.
func (s *SeqMapper) Frame(vpage uint64) uint64 {
	if s.frames == nil {
		s.frames = make(map[uint64]uint64)
	}
	if f, ok := s.frames[vpage]; ok {
		return f
	}
	f := s.next
	s.next++
	s.frames[vpage] = f
	return f
}

// Name implements Mapper.
func (s *SeqMapper) Name() string { return "sequential" }

// ColorMapper implements OS page coloring: the allocated frame's
// cache color (frame mod Colors) always equals the virtual page's
// color, so large-cache conflict behavior is controlled the way a
// coloring OS (like Tru64) controls it. This is one of the native
// DS-10L behaviors the paper says sim-alpha does not capture.
type ColorMapper struct {
	// Colors is the number of page colors (L2 size / associativity /
	// page size). It must be a power of two and set before first use.
	Colors uint64

	frames map[uint64]uint64
	nextIn map[uint64]uint64 // next frame index per color
}

// Frame implements Mapper.
func (c *ColorMapper) Frame(vpage uint64) uint64 {
	if c.Colors == 0 {
		panic("vm: ColorMapper.Colors not set")
	}
	if c.frames == nil {
		c.frames = make(map[uint64]uint64)
		c.nextIn = make(map[uint64]uint64)
	}
	if f, ok := c.frames[vpage]; ok {
		return f
	}
	color := vpage % c.Colors
	f := c.nextIn[color]*c.Colors + color
	c.nextIn[color]++
	c.frames[vpage] = f
	return f
}

// Name implements Mapper.
func (c *ColorMapper) Name() string { return "page-colored" }

// HashMapper scatters virtual pages pseudo-randomly across frames,
// modeling an uncontrolled mapping left over from prior allocations
// on a long-running machine. Deterministic for a given Seed.
type HashMapper struct {
	Seed   uint64
	frames map[uint64]uint64
	used   map[uint64]bool
}

// Frame implements Mapper.
func (h *HashMapper) Frame(vpage uint64) uint64 {
	if h.frames == nil {
		h.frames = make(map[uint64]uint64)
		h.used = make(map[uint64]bool)
	}
	if f, ok := h.frames[vpage]; ok {
		return f
	}
	x := vpage*0x9e3779b97f4a7c15 + h.Seed | 1
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	f := x % (1 << 15) // 32K frames = 256MB, the DS-10L's memory
	for h.used[f] {
		f = (f + 1) % (1 << 15)
	}
	h.used[f] = true
	h.frames[vpage] = f
	return f
}

// Name implements Mapper.
func (h *HashMapper) Name() string { return "hashed" }

// Mapping names a page-mapping policy as a plain value, so a machine
// configuration carrying one is fully described by its fields: two
// configs that map pages differently fingerprint differently.
type Mapping struct {
	// Policy is the Mapper's Name: "sequential", "page-colored" or
	// "hashed".
	Policy string
	// Colors is the page-color count of "page-colored", a power of
	// two; the other policies ignore it.
	Colors uint64
	// Seed perturbs "hashed"; the other policies ignore it.
	Seed uint64
}

// Check reports whether the mapping names a policy New can build.
// Colors is bounded at 2^20: that many 8 KB colors span an 8 GB cache
// way, far beyond any modeled L2.
func (m Mapping) Check() error {
	switch m.Policy {
	case "sequential", "hashed":
		return nil
	case "page-colored":
		if m.Colors == 0 || m.Colors > 1<<20 || m.Colors&(m.Colors-1) != 0 {
			return fmt.Errorf("vm: page-colored Colors %d is not a power of two in [1,2^20]", m.Colors)
		}
		return nil
	}
	return fmt.Errorf("vm: unknown mapping policy %q (want sequential, page-colored or hashed)", m.Policy)
}

// New builds a fresh mapper for the policy. It panics on a mapping
// that fails Check, which machine constructors have already run.
func (m Mapping) New() Mapper {
	if err := m.Check(); err != nil {
		panic(err)
	}
	switch m.Policy {
	case "page-colored":
		return &ColorMapper{Colors: m.Colors}
	case "hashed":
		return &HashMapper{Seed: m.Seed}
	}
	return &SeqMapper{}
}

// Translate returns the physical address for vaddr under m.
func Translate(m Mapper, vaddr uint64) uint64 {
	return m.Frame(vaddr>>PageBits)<<PageBits | vaddr&PageMask
}

// TLB is a fully associative translation buffer with round-robin
// replacement, used by the timing models. It caches virtual page
// numbers only; translation itself goes through the Mapper.
type TLB struct {
	entries []uint64
	valid   []bool
	next    int

	// last caches the most recently probed page (which is always
	// resident: it was either just hit or just inserted), so the
	// common same-page access run skips the associative scan. A hit
	// leaves replacement state untouched, making the shortcut
	// invisible to timing and to the Hits/Misses accounting.
	last   uint64
	lastOK bool

	Hits   uint64
	Misses uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("vm: invalid TLB size %d", entries))
	}
	return &TLB{entries: make([]uint64, entries), valid: make([]bool, entries)}
}

// Lookup probes the TLB for the page containing vaddr and inserts it
// on a miss. It reports whether the probe hit.
func (t *TLB) Lookup(vaddr uint64) bool {
	vpage := vaddr >> PageBits
	if t.lastOK && t.last == vpage {
		t.Hits++
		return true
	}
	for i, e := range t.entries {
		if t.valid[i] && e == vpage {
			t.Hits++
			t.last, t.lastOK = vpage, true
			return true
		}
	}
	t.Misses++
	t.entries[t.next] = vpage
	t.valid[t.next] = true
	t.next = (t.next + 1) % len(t.entries)
	t.last, t.lastOK = vpage, true
	return false
}

// Size returns the TLB capacity in entries.
func (t *TLB) Size() int { return len(t.entries) }

// ptBase is the physical region where synthetic page-table entries
// live, so that walk references exercise the cache hierarchy like any
// other access. It sits far above the program's working frames.
const ptBase = uint64(1) << 40

// WalkAddrs returns the physical addresses of the WalkLevels page-
// table entries a hardware (or PAL-code) walker reads to translate
// vaddr. Each level indexes a radix tree node with 10-bit fanout.
func WalkAddrs(vaddr uint64) [WalkLevels]uint64 {
	var out [WalkLevels]uint64
	vpn := vaddr >> PageBits
	for lvl := 0; lvl < WalkLevels; lvl++ {
		shift := uint(10 * (WalkLevels - 1 - lvl))
		index := vpn >> shift
		out[lvl] = ptBase + uint64(lvl)<<30 + index*8
	}
	return out
}
