package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/cache"
	"repro/internal/vm"
)

// Format identification. Version bumps whenever the byte layout
// changes; Decode rejects anything else (version skew is an error,
// never a silent reinterpretation).
var magic = [8]byte{'R', 'S', 'I', 'M', 'C', 'K', 'P', 'T'}

// Version is the current checkpoint format version.
const Version uint32 = 1

// Format bounds: every length is checked against these before
// allocation, so corrupted or adversarial input fails cleanly instead
// of exhausting memory, and an encoder never writes what Decode
// would refuse.
const (
	maxString = 1 << 12 // identity strings
	maxPages  = 1 << 16 // 512 MB of 8 KB pages, double the DS-10L's memory
	maxSlots  = 1 << 24 // cache/TLB/predictor table entries
)

// Encode serializes a state into the canonical versioned binary
// form. Encoding is deterministic: equal states produce equal bytes
// (pages are kept sorted by ExportPages, everything else has fixed
// order), so content addresses are stable.
func Encode(s *State) ([]byte, error) {
	var c codec
	if err := c.state(s); err != nil {
		return nil, err
	}
	return c.buf, nil
}

// Decode parses a checkpoint blob, rejecting truncated, corrupted,
// version-skewed, or non-canonical input with a descriptive error.
func Decode(blob []byte) (*State, error) {
	c, s := codec{dec: true, buf: blob}, &State{}
	if err := c.state(s); err != nil {
		return nil, err
	}
	return s, nil
}

// codec walks a state's fields in canonical order. Encoding appends
// each field to buf; decoding reads each from buf at off, checking it
// and storing it into the state. The first error sticks: every later
// step does nothing, and the error names the section it arose in.
type codec struct {
	dec     bool
	buf     []byte
	off     int
	section string
	err     error
}

// state is the one definition of the Version-1 layout.
func (c *codec) state(s *State) error {
	m, v := magic, Version
	c.bytes(m[:])
	if m != magic {
		c.fail("bad magic %q (not a checkpoint blob)", m[:])
	}
	c.u32(&v)
	if v != Version {
		c.fail("format version %d, this build reads %d", v, Version)
	}
	c.section = "model"
	c.str(&s.Model)
	switch s.Model {
	case ModelAlpha, ModelRUU, ModelInorder:
	default:
		c.fail("unknown model family %q", s.Model)
	}
	c.section = "machine"
	c.str(&s.Machine)
	c.section = "compat"
	c.str(&s.Compat)
	c.section = "workload"
	c.str(&s.Workload)
	c.section = "position"
	c.u64(&s.Position)

	c.section = "cpu"
	c.u64(&s.CPU.PC)
	for i := range s.CPU.R {
		c.u64(&s.CPU.R[i])
	}
	for i := range s.CPU.F {
		b := math.Float64bits(s.CPU.F[i])
		if c.u64(&b); c.dec {
			s.CPU.F[i] = math.Float64frombits(b)
		}
	}
	c.bool(&s.CPU.Halted)
	c.u64(&s.CPU.Seq)

	c.section = "pages"
	if n := c.count(len(s.Pages), maxPages); table(c, &s.Pages, n, 8+vm.PageSize) {
		for i := range s.Pages {
			c.u64(&s.Pages[i].VPage)
			if i > 0 && s.Pages[i].VPage <= s.Pages[i-1].VPage {
				c.fail("pages not strictly ascending at %d (non-canonical)", i)
			}
			c.bytes(s.Pages[i].Data[:])
		}
	}

	h := &s.Hier
	c.cache("L1I", &h.L1I)
	c.cache("L1D", &h.L1D)
	c.cache("L2", &h.L2)
	c.section = "victim buffer"
	if present(c, &h.VB) {
		vb := h.VB
		n := c.count(len(vb.Blocks), maxSlots)
		c.u64s(&vb.Blocks, n)
		c.bools(&vb.Dirty, n)
		c.bools(&vb.Valid, n)
		c.index(&vb.Next, n)
		c.u64(&vb.Hits, &vb.Probes)
	}
	c.tlb("ITLB", &h.ITLB)
	c.tlb("DTLB", &h.DTLB)
	c.section = "mapper"
	c.str(&h.Mapper.Policy)
	if n := c.count(len(h.Mapper.Pairs), maxSlots); table(c, &h.Mapper.Pairs, n, 16) {
		for i := range h.Mapper.Pairs {
			c.u64(&h.Mapper.Pairs[i].VPage, &h.Mapper.Pairs[i].Frame)
		}
	}

	c.section = "predictor"
	if present(c, &s.Tour) {
		t := s.Tour
		for _, tbl := range []*[]uint32{&t.LocalHist, &t.LocalCtr, &t.GlobalCtr, &t.ChoiceCtr} {
			c.u32s(tbl)
		}
		c.u32(&t.SpecHist, &t.RetHist)
		c.u64(&t.Lookups, &t.Mispredicts)
	}
	c.section = "line predictor"
	if present(c, &s.Line) {
		l := s.Line
		n := c.count(len(l.Entries), maxSlots)
		c.u64s(&l.Entries, n)
		c.bools(&l.Valid, n)
		c.u64(&l.Lookups, &l.Mispredicts)
	}
	c.section = "way predictor"
	if present(c, &s.Way) {
		w := s.Way
		if n := c.count(len(w.Ways), maxSlots); table(c, &w.Ways, n, 1) {
			c.bytes(w.Ways)
			c.bools(&w.Valid, n)
		}
		c.u64(&w.Lookups, &w.Mispredicts)
	}
	c.section = "bimodal"
	c.u32s(&s.Bimodal)

	c.section = ""
	switch {
	case s.Model == ModelAlpha && s.Tour == nil:
		c.fail("alpha state without tournament predictor")
	case s.Model == ModelAlpha && (s.Line == nil || s.Way == nil):
		c.fail("alpha state without line/way predictors")
	case s.Model == ModelInorder && len(s.Bimodal) == 0:
		c.fail("inorder state without bimodal table")
	}
	if c.dec && c.off != len(c.buf) {
		c.fail("%d trailing bytes after state", len(c.buf)-c.off)
	}
	return c.err
}

func (c *codec) cache(name string, st *cache.CacheState) {
	c.section = name
	n := c.count(len(st.Tags), maxSlots)
	c.u64s(&st.Tags, n)
	c.bools(&st.Valid, n)
	c.bools(&st.Dirty, n)
	c.u64s(&st.Age, n)
	c.u64(&st.Clock, &st.Stats.Accesses, &st.Stats.Hits, &st.Stats.Misses, &st.Stats.Evictions, &st.Stats.Writebacks)
}

func (c *codec) tlb(name string, st *vm.TLBState) {
	c.section = name
	n := c.count(len(st.Entries), maxSlots)
	c.u64s(&st.Entries, n)
	c.bools(&st.Valid, n)
	c.index(&st.Next, n)
	c.u64(&st.Last)
	c.bool(&st.LastOK)
	c.u64(&st.Hits, &st.Misses)
}

// fail records the walk's first error, prefixed with its section.
func (c *codec) fail(format string, args ...any) {
	if c.err != nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if c.section != "" {
		msg = c.section + ": " + msg
	}
	c.err = errors.New("checkpoint: " + msg)
}

// need reports whether the walk may go on with n more bytes: when
// decoding, the blob must still hold them.
func (c *codec) need(n uint64) bool {
	if c.err == nil && c.dec && uint64(len(c.buf)-c.off) < n {
		c.fail("truncated: need %d bytes, have %d", n, len(c.buf)-c.off)
	}
	return c.err == nil
}

func (c *codec) bytes(b []byte) {
	if !c.need(uint64(len(b))) {
		return
	}
	if c.dec {
		c.off += copy(b, c.buf[c.off:])
	} else {
		c.buf = append(c.buf, b...)
	}
}

func (c *codec) u32(vs ...*uint32) {
	for _, v := range vs {
		if !c.need(4) {
			return
		}
		if c.dec {
			*v = binary.LittleEndian.Uint32(c.buf[c.off:])
			c.off += 4
		} else {
			c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
		}
	}
}

func (c *codec) u64(vs ...*uint64) {
	for _, v := range vs {
		if !c.need(8) {
			return
		}
		if c.dec {
			*v = binary.LittleEndian.Uint64(c.buf[c.off:])
			c.off += 8
		} else {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
		}
	}
}

func (c *codec) bool(v *bool) {
	if !c.need(1) {
		return
	}
	if c.dec {
		*v = c.canonical(c.buf[c.off])
		c.off++
	} else {
		c.buf = append(c.buf, b2u(*v))
	}
}

// canonical decodes a boolean byte, which must be 0 or 1.
func (c *codec) canonical(b byte) bool {
	if b > 1 {
		c.fail("non-canonical boolean byte %#x", b)
	}
	return b == 1
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func (c *codec) str(s *string) {
	n := c.count(len(*s), maxString)
	if !c.need(uint64(n)) {
		return
	}
	if c.dec {
		*s = string(c.buf[c.off : c.off+n])
		c.off += n
	} else {
		c.buf = append(c.buf, *s...)
	}
}

// count walks the length prefix of a table or string; n is the length
// to encode (0 when decoding). The bound is checked before anything is
// allocated, and an over-long table to encode fails the same check.
// It returns the length, or 0 once the walk has failed.
func (c *codec) count(n, bound int) int {
	u := uint32(min(n, bound+1))
	c.u32(&u)
	if int(u) > bound {
		c.fail("length %d exceeds the format bound %d", max(n, int(u)), bound)
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// index walks a rotation or replacement index into a table of n
// entries.
func (c *codec) index(v *int, n int) {
	u := uint32(*v)
	if c.u32(&u); c.dec {
		*v = int(u)
	}
	if n > 0 && (*v < 0 || *v >= n) {
		c.fail("index %d out of range [0,%d)", *v, n)
	}
}

// table readies a table of n entries, size bytes each, to be walked:
// a table to encode must hold exactly n entries, and the buffer grows
// once for all of them; a decoded one is allocated only once the blob
// is known to hold it. It reports whether the walk goes on.
func table[T any](c *codec, vs *[]T, n int, size uint64) bool {
	switch {
	case !c.dec && len(*vs) != n:
		c.fail("inconsistent table lengths: %d entries, section has %d", len(*vs), n)
	case !c.dec:
		c.buf = slices.Grow(c.buf, n*int(size))
	case c.need(uint64(n)*size) && n > 0:
		*vs = make([]T, n)
	}
	return c.err == nil
}

// present walks an optional section's presence byte, allocating the
// section when decoding one that is there.
func present[T any](c *codec, p **T) bool {
	has := *p != nil
	if c.bool(&has); c.dec && has && c.err == nil {
		*p = new(T)
	}
	return has && c.err == nil
}

func (c *codec) u64s(vs *[]uint64, n int) {
	if !table(c, vs, n, 8) {
		return
	}
	if c.dec {
		src := c.buf[c.off : c.off+8*n]
		for i := range *vs {
			(*vs)[i] = binary.LittleEndian.Uint64(src[8*i:])
		}
		c.off += 8 * n
		return
	}
	for _, v := range *vs {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, v)
	}
}

func (c *codec) bools(vs *[]bool, n int) {
	if !table(c, vs, n, 1) {
		return
	}
	if c.dec {
		for i, b := range c.buf[c.off : c.off+n] {
			(*vs)[i] = c.canonical(b)
		}
		c.off += n
		return
	}
	for _, v := range *vs {
		c.buf = append(c.buf, b2u(v))
	}
}

// u32s walks a length-prefixed table of 32-bit words.
func (c *codec) u32s(vs *[]uint32) {
	n := c.count(len(*vs), maxSlots)
	if !table(c, vs, n, 4) {
		return
	}
	if c.dec {
		src := c.buf[c.off : c.off+4*n]
		for i := range *vs {
			(*vs)[i] = binary.LittleEndian.Uint32(src[4*i:])
		}
		c.off += 4 * n
		return
	}
	for _, v := range *vs {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, v)
	}
}
