// Package cache implements the on-chip memory system of the 21264
// model: set-associative caches with LRU replacement, the eight-entry
// victim buffer, miss address files (MSHRs) with combining targets,
// and a Hierarchy that composes them with the DRAM model and the
// TLBs, accounting for bus contention between levels.
package cache

import (
	"fmt"

	"repro/internal/bounds"
)

// Config describes one cache array.
type Config struct {
	Name       string
	SizeBytes  int
	BlockBytes int
	Assoc      int
	HitLatency int // load-to-use cycles on a hit
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

// maxCacheBytes bounds one cache array (64 MB, 32× the DS-10L's L2).
const maxCacheBytes = 64 << 20

// Check validates the geometry: blocks and the set count are powers
// of two (Block and Set mask by them) and every size is bounded.
func (c Config) Check() error {
	if err := bounds.Check("cache",
		bounds.Int{Name: "SizeBytes", V: c.SizeBytes, Lo: 64, Hi: maxCacheBytes},
		bounds.Int{Name: "BlockBytes", V: c.BlockBytes, Lo: 16, Hi: 4096},
		bounds.Int{Name: "Assoc", V: c.Assoc, Lo: 1, Hi: 64},
		bounds.Int{Name: "HitLatency", V: c.HitLatency, Lo: 0, Hi: bounds.MaxCycles},
	); err != nil {
		return fmt.Errorf("%s %w", c.Name, err)
	}
	if !bounds.Pow2(c.BlockBytes) || c.SizeBytes%(c.BlockBytes*c.Assoc) != 0 || !bounds.Pow2(c.Sets()) {
		return fmt.Errorf("cache %s: %d bytes of %d-byte blocks, %d-way, is not a power-of-two block size and set count",
			c.Name, c.SizeBytes, c.BlockBytes, c.Assoc)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative tag array with true-LRU replacement.
// It tracks timing state only; data lives in the functional memory.
type Cache struct {
	cfg   Config
	tags  []uint64 // sets*assoc entries
	valid []bool
	dirty []bool
	age   []uint64 // LRU stamps
	clock uint64

	Stats Stats
}

// New returns an empty cache with the given geometry. It panics on a
// degenerate configuration, which is a programming error.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.BlockBytes <= 0 || cfg.Assoc <= 0 || cfg.Sets() <= 0 {
		panic("cache: invalid configuration " + cfg.Name)
	}
	n := cfg.Sets() * cfg.Assoc
	return &Cache{
		cfg:   cfg,
		tags:  make([]uint64, n),
		valid: make([]bool, n),
		dirty: make([]bool, n),
		age:   make([]uint64, n),
	}
}

// Cfg returns the cache geometry.
func (c *Cache) Cfg() Config { return c.cfg }

// Block returns the block-aligned address containing paddr.
func (c *Cache) Block(paddr uint64) uint64 {
	return paddr &^ uint64(c.cfg.BlockBytes-1)
}

// Set returns the set index for paddr.
func (c *Cache) Set(paddr uint64) int {
	return int(paddr/uint64(c.cfg.BlockBytes)) & (c.cfg.Sets() - 1)
}

func (c *Cache) slot(set, way int) int { return set*c.cfg.Assoc + way }

// Probe looks up paddr without modifying contents, recording the
// access and updating LRU on a hit. It returns the hit way.
func (c *Cache) Probe(paddr uint64, write bool) (hit bool, way int) {
	c.Stats.Accesses++
	c.clock++
	set := c.Set(paddr)
	tag := c.Block(paddr)
	for w := 0; w < c.cfg.Assoc; w++ {
		s := c.slot(set, w)
		if c.valid[s] && c.tags[s] == tag {
			c.age[s] = c.clock
			if write {
				c.dirty[s] = true
			}
			c.Stats.Hits++
			return true, w
		}
	}
	c.Stats.Misses++
	return false, -1
}

// Peek reports whether paddr is resident without touching statistics
// or LRU state (used by way-prediction checks and tests).
func (c *Cache) Peek(paddr uint64) (hit bool, way int) {
	set := c.Set(paddr)
	tag := c.Block(paddr)
	for w := 0; w < c.cfg.Assoc; w++ {
		s := c.slot(set, w)
		if c.valid[s] && c.tags[s] == tag {
			return true, w
		}
	}
	return false, -1
}

// Insert fills the block containing paddr, evicting the LRU way if
// necessary. It returns the evicted block (victimOK) and whether the
// victim was dirty (needing write-back).
func (c *Cache) Insert(paddr uint64, dirty bool) (victim uint64, victimOK, victimDirty bool) {
	c.clock++
	set := c.Set(paddr)
	tag := c.Block(paddr)
	// Already resident (a combining fill): just mark.
	for w := 0; w < c.cfg.Assoc; w++ {
		s := c.slot(set, w)
		if c.valid[s] && c.tags[s] == tag {
			c.age[s] = c.clock
			if dirty {
				c.dirty[s] = true
			}
			return 0, false, false
		}
	}
	// Choose an invalid way, else LRU.
	victimWay, oldest := -1, c.clock+1
	for w := 0; w < c.cfg.Assoc; w++ {
		s := c.slot(set, w)
		if !c.valid[s] {
			victimWay = w
			break
		}
		if c.age[s] < oldest {
			oldest = c.age[s]
			victimWay = w
		}
	}
	s := c.slot(set, victimWay)
	if c.valid[s] {
		victim, victimOK, victimDirty = c.tags[s], true, c.dirty[s]
		c.Stats.Evictions++
		if victimDirty {
			c.Stats.Writebacks++
		}
	}
	c.tags[s] = tag
	c.valid[s] = true
	c.dirty[s] = dirty
	c.age[s] = c.clock
	return victim, victimOK, victimDirty
}

// VictimBuffer is the 21264's eight-entry fully associative buffer
// holding blocks recently evicted from the L1 data cache. A hit in
// the buffer avoids the trip to L2.
type VictimBuffer struct {
	blocks []uint64
	dirty  []bool
	valid  []bool
	next   int

	Hits   uint64
	Probes uint64
}

// NewVictimBuffer returns a buffer with the given capacity.
func NewVictimBuffer(entries int) *VictimBuffer {
	return &VictimBuffer{
		blocks: make([]uint64, entries),
		dirty:  make([]bool, entries),
		valid:  make([]bool, entries),
	}
}

// Probe looks for block and removes it on a hit (the block moves back
// into the L1). It reports the hit and the block's dirtiness.
func (v *VictimBuffer) Probe(block uint64) (hit, dirty bool) {
	v.Probes++
	for i := range v.blocks {
		if v.valid[i] && v.blocks[i] == block {
			v.valid[i] = false
			v.Hits++
			return true, v.dirty[i]
		}
	}
	return false, false
}

// Insert adds an evicted block, displacing the oldest entry (whose
// write-back, if dirty, is the caller's responsibility).
func (v *VictimBuffer) Insert(block uint64, dirty bool) (displaced uint64, displacedDirty, displacedOK bool) {
	i := v.next
	v.next = (v.next + 1) % len(v.blocks)
	if v.valid[i] {
		displaced, displacedDirty, displacedOK = v.blocks[i], v.dirty[i], true
	}
	v.blocks[i] = block
	v.dirty[i] = dirty
	v.valid[i] = true
	return displaced, displacedDirty, displacedOK
}

// MAF is a miss address file (MSHR file): it tracks outstanding
// misses, combines requests to a block already in flight, and stalls
// new misses when full (the mbox trap behavior the paper's "trap"
// feature controls lives in the timing model; the MAF itself just
// reports full).
type MAF struct {
	blocks []uint64
	fillAt []uint64

	Allocs     uint64
	Combines   uint64
	FullStalls uint64
}

// NewMAF returns a MAF with the given number of entries.
func NewMAF(entries int) *MAF {
	return &MAF{blocks: make([]uint64, entries), fillAt: make([]uint64, entries)}
}

// Lookup returns the fill completion time of an in-flight miss on
// block, combining with it. ok is false when no miss is outstanding.
func (m *MAF) Lookup(block, now uint64) (fillAt uint64, ok bool) {
	for i := range m.blocks {
		if m.fillAt[i] > now && m.blocks[i] == block {
			m.Combines++
			return m.fillAt[i], true
		}
	}
	return 0, false
}

// Allocate reserves an entry for a miss on block completing at
// fillAt. If the file is full it returns the earliest cycle an entry
// frees (stallUntil) and ok=false; the caller retries after stalling.
func (m *MAF) Allocate(block, now, fillAt uint64) (stallUntil uint64, ok bool) {
	freeIdx, earliest := -1, uint64(1)<<63
	for i := range m.blocks {
		if m.fillAt[i] <= now {
			freeIdx = i
			break
		}
		if m.fillAt[i] < earliest {
			earliest = m.fillAt[i]
		}
	}
	if freeIdx < 0 {
		m.FullStalls++
		return earliest, false
	}
	m.blocks[freeIdx] = block
	m.fillAt[freeIdx] = fillAt
	m.Allocs++
	return 0, true
}

// Full reports whether no entry is free at now, and if so when the
// earliest entry frees.
func (m *MAF) Full(now uint64) (bool, uint64) {
	earliest := uint64(1) << 63
	for i := range m.blocks {
		if m.fillAt[i] <= now {
			return false, 0
		}
		if m.fillAt[i] < earliest {
			earliest = m.fillAt[i]
		}
	}
	return true, earliest
}
