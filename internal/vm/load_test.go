package vm

import (
	"math/rand"
	"reflect"
	"testing"
)

// setBytesRef is the byte-at-a-time loader SetBytes replaced, kept as
// the reference the page-at-a-time copy must match.
func setBytesRef(m *Memory, addr uint64, b []byte) {
	for i, c := range b {
		m.SetByte(addr+uint64(i), c)
	}
}

// loadChecker applies every write to a memory under test and to a
// reference memory, then requires the two to agree on the written
// bytes, the page count, and the exported page images.
type loadChecker struct {
	t        *testing.T
	got, ref *Memory
}

func newLoadChecker(t *testing.T) *loadChecker {
	return &loadChecker{t: t, got: NewMemory(), ref: NewMemory()}
}

func (c *loadChecker) write(addr uint64, b []byte) {
	c.t.Helper()
	c.got.SetBytes(addr, b)
	setBytesRef(c.ref, addr, b)
	for i := range b {
		a := addr + uint64(i)
		if g, w := c.got.Byte(a), c.ref.Byte(a); g != w {
			c.t.Fatalf("SetBytes(%#x, %d bytes): Byte(%#x) = %#x, reference %#x", addr, len(b), a, g, w)
		}
	}
	if g, w := c.got.TouchedPages(), c.ref.TouchedPages(); g != w {
		c.t.Fatalf("SetBytes(%#x, %d bytes): TouchedPages = %d, reference %d", addr, len(b), g, w)
	}
	if !reflect.DeepEqual(c.got.ExportPages(), c.ref.ExportPages()) {
		c.t.Fatalf("SetBytes(%#x, %d bytes): exported pages differ from the reference's", addr, len(b))
	}
}

// pattern returns n bytes that differ from their neighbours and from
// the same span at another seed, so a misplaced copy shows.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) + seed
	}
	return b
}

func TestSetBytesPageBoundaries(t *testing.T) {
	const base = 0x120000000 // page-aligned, like asm's data segment
	cases := []struct {
		name string
		addr uint64
		n    int
	}{
		{"empty", base + 5, 0},
		{"empty aligned", base, 0},
		{"one byte", base + 9, 1},
		{"exactly one page", base, PageSize},
		{"last byte of a page", base + PageSize - 1, 1},
		{"unaligned within a page", base + 100, 200},
		{"unaligned across one boundary", base + PageSize - 3, 8},
		{"unaligned across two boundaries", base + PageSize - 10, PageSize + 20},
		{"aligned over three pages", base, 3 * PageSize},
		{"wraps past the top of memory", ^uint64(0) - 4, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newLoadChecker(t)
			c.write(tc.addr, pattern(tc.n, 1))
		})
	}
}

func TestSetBytesOverwrites(t *testing.T) {
	const base = 0x120000000
	c := newLoadChecker(t)
	c.write(base, pattern(3*PageSize, 1))
	// Overlapping rewrites: inside one page, across a boundary, and
	// a span of zeros, which must overwrite data rather than skip it.
	c.write(base+40, pattern(64, 2))
	c.write(base+PageSize-16, pattern(PageSize, 3))
	c.write(base+2*PageSize-8, make([]byte, 32))
	// Extending past the loaded pages allocates only the new one.
	c.write(base+3*PageSize-4, pattern(12, 4))
}

func TestSetBytesRandomSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := newLoadChecker(t)
	for i := 0; i < 200; i++ {
		addr := uint64(rng.Intn(16 * PageSize))
		n := rng.Intn(3 * PageSize)
		b := make([]byte, n)
		rng.Read(b)
		c.write(addr, b)
	}
}

// FuzzSetBytes checks the page-at-a-time loader against the byte
// loop for arbitrary spans written over an existing image. Its seeds
// (empty, one exact page, two boundaries, an overwrite, a wrap past
// the top of memory) are committed under testdata/fuzz.
func FuzzSetBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, addr, prior uint64, data []byte) {
		c := newLoadChecker(t)
		// An earlier write near the span makes some of its pages
		// existing data rather than fresh allocations.
		c.write(addr+prior%(2*PageSize)-PageSize, pattern(int(prior%PageSize), 9))
		c.write(addr, data)
	})
}
