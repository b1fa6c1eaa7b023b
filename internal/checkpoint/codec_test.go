package checkpoint

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/vm"
)

func testCacheState(n int, seed uint64) cache.CacheState {
	st := cache.CacheState{
		Tags:  make([]uint64, n),
		Valid: make([]bool, n),
		Dirty: make([]bool, n),
		Age:   make([]uint64, n),
		Clock: seed * 31,
	}
	for i := 0; i < n; i++ {
		st.Tags[i] = seed + uint64(i)*0x9e37
		st.Valid[i] = i%2 == 0
		st.Dirty[i] = i%3 == 0
		st.Age[i] = seed ^ uint64(i)
	}
	st.Stats = cache.Stats{Accesses: seed + 5, Hits: seed + 4, Misses: 1, Evictions: 2, Writebacks: 3}
	return st
}

func testTLBState(n int) vm.TLBState {
	st := vm.TLBState{
		Entries: make([]uint64, n),
		Valid:   make([]bool, n),
		Next:    n / 2,
		Last:    42,
		LastOK:  true,
		Hits:    100,
		Misses:  7,
	}
	for i := 0; i < n; i++ {
		st.Entries[i] = uint64(i) << 13
		st.Valid[i] = i%2 == 1
	}
	return st
}

// testState builds a small but fully populated alpha-family state.
func testState() *State {
	s := &State{
		Model:    ModelAlpha,
		Machine:  "sim-alpha",
		Compat:   "deadbeef",
		Workload: "gcc",
		Position: 123456,
	}
	s.CPU.PC = 0x1000
	for i := range s.CPU.R {
		s.CPU.R[i] = uint64(i) * 0x1111
	}
	for i := range s.CPU.F {
		s.CPU.F[i] = float64(i) * 1.5
	}
	s.CPU.Seq = 123456
	s.Pages = make([]vm.PageImage, 3)
	for i := range s.Pages {
		s.Pages[i].VPage = uint64(i * 7)
		for j := range s.Pages[i].Data {
			s.Pages[i].Data[j] = byte(i + j)
		}
	}
	s.Hier = cache.HierarchyState{
		L1I:  testCacheState(8, 1),
		L1D:  testCacheState(8, 2),
		L2:   testCacheState(32, 3),
		ITLB: testTLBState(4),
		DTLB: testTLBState(8),
		Mapper: vm.MapperState{
			Policy: "seq",
			Pairs:  []vm.MapPair{{VPage: 0, Frame: 0}, {VPage: 7, Frame: 1}, {VPage: 14, Frame: 2}},
		},
	}
	vb := cache.VBState{
		Blocks: []uint64{1, 2, 3, 4},
		Dirty:  []bool{true, false, true, false},
		Valid:  []bool{true, true, false, false},
		Next:   1,
		Hits:   9,
		Probes: 20,
	}
	s.Hier.VB = &vb
	s.Tour = &predict.TournamentState{
		LocalHist:   []uint32{1, 2, 3, 4},
		LocalCtr:    []uint32{0, 1, 2, 3},
		GlobalCtr:   []uint32{3, 2, 1, 0},
		ChoiceCtr:   []uint32{1, 1, 2, 2},
		SpecHist:    0xbeef,
		RetHist:     0xcafe,
		Lookups:     500,
		Mispredicts: 17,
	}
	s.Line = &predict.LineState{
		Entries:     []uint64{0x1000, 0x2010, 0, 0x3020},
		Valid:       []bool{true, true, false, true},
		Lookups:     321,
		Mispredicts: 13,
	}
	s.Way = &predict.WayState{
		Ways:        []uint8{0, 1, 1, 0},
		Valid:       []bool{true, false, true, true},
		Lookups:     222,
		Mispredicts: 5,
	}
	return s
}

// nanRegister is a NaN bit pattern: a state holding it in an FP
// register round-trips its bytes exactly but is not DeepEqual to
// itself.
const nanRegister = 0xffffff0000000000

// sameState reports whether two states hold the same values, comparing
// the FP registers by their bits so that a NaN equals itself.
func sameState(a, b *State) bool {
	for i := range a.CPU.F {
		if math.Float64bits(a.CPU.F[i]) != math.Float64bits(b.CPU.F[i]) {
			return false
		}
	}
	ac, bc := *a, *b
	clear(ac.CPU.F[:])
	clear(bc.CPU.F[:])
	return reflect.DeepEqual(&ac, &bc)
}

func TestCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*State)
	}{
		{"alpha", func(s *State) {}},
		{"ruu", func(s *State) { s.Model = ModelRUU; s.Tour, s.Line, s.Way = nil, nil, nil }},
		{"inorder", func(s *State) {
			s.Model = ModelInorder
			s.Tour, s.Line, s.Way = nil, nil, nil
			s.Bimodal = []uint32{0, 1, 2, 3, 2, 1}
		}},
		{"no-vb", func(s *State) { s.Hier.VB = nil }},
		{"no-pages", func(s *State) { s.Pages = nil }},
		{"nan-register", func(s *State) { s.CPU.F[0] = math.Float64frombits(nanRegister) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testState()
			tc.mut(s)
			blob, err := Encode(s)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Decode(blob)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !sameState(s, got) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", s, got)
			}
			blob2, err := Encode(got)
			if err != nil {
				t.Fatalf("re-Encode: %v", err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("encoding not deterministic: %d vs %d bytes", len(blob), len(blob2))
			}
			if h := Hash(blob); h != Hash(blob2) || len(h) != 64 {
				t.Fatalf("content hash unstable or malformed: %q", h)
			}
		})
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	blob, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must fail cleanly (stride keeps the test fast
	// while still probing every section boundary region).
	stride := len(blob)/997 + 1
	for n := 0; n < len(blob); n += stride {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("Decode accepted a %d-byte prefix of a %d-byte blob", n, len(blob))
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	base, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "bad magic"},
		{"version skew", func(b []byte) []byte { b[8] = 99; return b }, "version"},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, "trailing"},
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), base...))
			_, err := Decode(b)
			if err == nil {
				t.Fatalf("Decode accepted corrupted input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	// Non-ascending pages.
	s := testState()
	s.Pages[1].VPage = s.Pages[0].VPage
	if _, err := Encode(s); err == nil {
		t.Fatal("Encode accepted non-ascending pages")
	}

	// A boolean byte outside {0,1}: flip the CPU Halted byte. Its
	// offset is fixed: magic(8) + version(4) + 4 strings + position(8)
	// + PC(8) + 64 regs (512) precede it.
	s = testState()
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	off := 8 + 4
	for _, str := range []string{s.Model, s.Machine, s.Compat, s.Workload} {
		off += 4 + len(str)
	}
	off += 8 + 8 + 64*8
	if blob[off] != 0 {
		t.Fatalf("expected Halted byte at offset %d, found %#x", off, blob[off])
	}
	blob[off] = 2
	if _, err := Decode(blob); err == nil || !strings.Contains(err.Error(), "non-canonical") {
		t.Fatalf("Decode accepted boolean byte 2: %v", err)
	}
}

// TestDecodeErrorsNameTheirSection cuts an encoded state inside each
// section in turn: the error must name the section the cut fell in.
func TestDecodeErrorsNameTheirSection(t *testing.T) {
	s := testState()
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	cacheSize := func(c cache.CacheState) int { return 4 + 18*len(c.Tags) + 48 }
	tlbSize := func(t vm.TLBState) int { return 4 + 9*len(t.Entries) + 4 + 8 + 1 + 16 }
	tour := 1 + 4*4 + 4*(len(s.Tour.LocalHist)+len(s.Tour.LocalCtr)+len(s.Tour.GlobalCtr)+len(s.Tour.ChoiceCtr)) + 4 + 4 + 16
	off := 8 + 4 // magic, version
	for _, sec := range []struct {
		name string
		size int
	}{
		{"model", 4 + len(s.Model)},
		{"machine", 4 + len(s.Machine)},
		{"compat", 4 + len(s.Compat)},
		{"workload", 4 + len(s.Workload)},
		{"position", 8},
		{"cpu", 8 + 2*8*isa.NumRegs + 1 + 8},
		{"pages", 4 + len(s.Pages)*(8+vm.PageSize)},
		{"L1I", cacheSize(s.Hier.L1I)},
		{"L1D", cacheSize(s.Hier.L1D)},
		{"L2", cacheSize(s.Hier.L2)},
		{"victim buffer", 1 + 4 + 10*len(s.Hier.VB.Blocks) + 4 + 16},
		{"ITLB", tlbSize(s.Hier.ITLB)},
		{"DTLB", tlbSize(s.Hier.DTLB)},
		{"mapper", 4 + len(s.Hier.Mapper.Policy) + 4 + 16*len(s.Hier.Mapper.Pairs)},
		{"predictor", tour},
		{"line predictor", 1 + 4 + 9*len(s.Line.Entries) + 16},
		{"way predictor", 1 + 4 + 2*len(s.Way.Ways) + 16},
		{"bimodal", 4 + 4*len(s.Bimodal)},
	} {
		cut := off + sec.size/2
		_, err := Decode(blob[:cut])
		if err == nil || !strings.HasPrefix(err.Error(), "checkpoint: "+sec.name+": ") {
			t.Errorf("cut at byte %d, inside %s: got %v", cut, sec.name, err)
		}
		off += sec.size
	}
	if off != len(blob) {
		t.Fatalf("the sections cover %d of the blob's %d bytes", off, len(blob))
	}
}

// TestEncodeRefusesWhatDecodeRejects: the walk's checks run in both
// directions, so Encode never writes a blob that Decode would refuse.
func TestEncodeRefusesWhatDecodeRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*State)
		want string
	}{
		{"over-long string", func(s *State) { s.Workload = strings.Repeat("w", maxString+1) }, "workload: length"},
		{"TLB index", func(s *State) { s.Hier.DTLB.Next = len(s.Hier.DTLB.Entries) }, "DTLB: index"},
		{"victim-buffer index", func(s *State) { s.Hier.VB.Next = -1 }, "victim buffer: index"},
		{"table lengths", func(s *State) { s.Hier.L2.Age = s.Hier.L2.Age[1:] }, "L2: inconsistent"},
		{"alpha without line predictor", func(s *State) { s.Line = nil }, "without line/way"},
		{"unknown family", func(s *State) { s.Model = "vax" }, "unknown model family"},
	} {
		s := testState()
		tc.mut(s)
		if _, err := Encode(s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Encode error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestDecodeBoundsLengths(t *testing.T) {
	// A huge page count must be rejected before allocation: the blob
	// is far too small to hold the claimed pages.
	s := testState()
	s.Pages = nil
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	off := 8 + 4
	for _, str := range []string{s.Model, s.Machine, s.Compat, s.Workload} {
		off += 4 + len(str)
	}
	off += 8 + 8 + 64*8 + 1 + 8 // meta + cpu
	blob[off] = 0xff            // page count low byte
	blob[off+1] = 0xff
	blob[off+2] = 0xff
	blob[off+3] = 0x7f
	if _, err := Decode(blob); err == nil {
		t.Fatal("Decode accepted a 2-billion-page claim")
	}
}

func TestLibraryCheck(t *testing.T) {
	lib := &Library{Positions: []uint64{100, 200, 300}}
	if err := lib.Check(); err != nil {
		t.Fatalf("valid library rejected: %v", err)
	}
	bad := &Library{Positions: []uint64{100, 100}}
	if err := bad.Check(); err == nil {
		t.Fatal("non-ascending positions accepted")
	}
	if err := (&Library{}).Check(); err == nil {
		t.Fatal("empty library accepted")
	}
	mismatch := &Library{Positions: []uint64{1, 2}, Hashes: []string{"x"}}
	if err := mismatch.Check(); err == nil {
		t.Fatal("hash-count mismatch accepted")
	}
}

func TestCompatibleWith(t *testing.T) {
	s := testState()
	if err := s.CompatibleWith(ModelAlpha, "deadbeef"); err != nil {
		t.Fatalf("compatible state rejected: %v", err)
	}
	if err := s.CompatibleWith(ModelRUU, "deadbeef"); err == nil {
		t.Fatal("model-family mismatch accepted")
	}
	if err := s.CompatibleWith(ModelAlpha, "other"); err == nil {
		t.Fatal("compat mismatch accepted")
	}
}

func FuzzDecode(f *testing.F) {
	for _, mut := range []func(*State){
		func(s *State) {},
		func(s *State) {
			s.Model = ModelRUU
			s.Tour, s.Line, s.Way = nil, nil, nil
			s.Hier.VB = nil
			s.Pages = s.Pages[:1]
		},
		func(s *State) {
			s.Model = ModelInorder
			s.Tour, s.Line, s.Way = nil, nil, nil
			s.Bimodal = []uint32{1, 2}
			s.Pages = nil
		},
	} {
		s := testState()
		mut(s)
		blob, err := Encode(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte("RSIMCKPT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := Decode(blob)
		if err != nil {
			return
		}
		// Anything Decode accepts must re-encode to the identical bytes
		// (canonical form) and decode back equal.
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("accepted state fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, blob) {
			t.Fatalf("decode/encode not canonical: %d in, %d out", len(blob), len(re))
		}
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !sameState(s, s2) {
			t.Fatal("re-decode mismatch")
		}
	})
}
