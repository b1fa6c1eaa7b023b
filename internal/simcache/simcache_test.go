package simcache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

func key(s string) Key { return KeyOf("test", s) }

// TestSingleflightStorm hammers one key from many goroutines and
// requires exactly one computation; every caller must see the same
// bytes. Run under -race this also audits the flight handoff.
func TestSingleflightStorm(t *testing.T) {
	const goroutines = 64
	c := New(8)
	var computes atomic.Uint64
	var release sync.WaitGroup
	release.Add(1)

	var wg sync.WaitGroup
	vals := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release.Wait()
			vals[i], _, errs[i] = c.GetOrCompute(key("storm"), func() ([]byte, error) {
				computes.Add(1)
				return []byte(`{"cpi":1.25}`), nil
			})
		}(i)
	}
	release.Done()
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want exactly 1", got)
	}
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !bytes.Equal(vals[i], vals[0]) {
			t.Fatalf("goroutine %d saw %q, goroutine 0 saw %q", i, vals[i], vals[0])
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Waits != goroutines-1 {
		t.Errorf("hits (%d) + waits (%d) = %d, want %d",
			st.Hits, st.Waits, st.Hits+st.Waits, goroutines-1)
	}
	if st.InFlight != 0 {
		t.Errorf("inflight = %d after storm, want 0", st.InFlight)
	}
}

// TestLRUEvictionOrder checks the eviction policy: least recently
// *used*, not least recently inserted.
func TestLRUEvictionOrder(t *testing.T) {
	c := New(3)
	put := func(name string) {
		t.Helper()
		_, _, err := c.GetOrCompute(key(name), func() ([]byte, error) {
			return []byte(name), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	put("c")
	put("a") // touch a: recency order now a, c, b
	put("d") // over capacity: must evict b, the least recently used

	want := []Key{key("d"), key("a"), key("c")}
	got := c.Keys()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, ok := c.Peek(key("b")); ok {
		t.Fatal("b survived eviction; want it dropped as least recently used")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestHitByteIdenticalToRecompute is the determinism contract: a
// cache hit must serve exactly the bytes the cold computation
// produced, and no caller may be able to corrupt them.
func TestHitByteIdenticalToRecompute(t *testing.T) {
	c := New(8)
	compute := func() ([]byte, error) {
		return []byte(`{"machine":"sim-alpha","workload":"gzip","cpi":1.832}`), nil
	}
	cold, cached, err := c.GetOrCompute(key("det"), compute)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first request reported cached")
	}
	coldCopy := append([]byte(nil), cold...)
	cold[0] = 'X' // a hostile caller scribbling on its response

	warm, cached, err := c.GetOrCompute(key("det"), func() ([]byte, error) {
		t.Fatal("cache hit ran compute")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second request missed")
	}
	if !bytes.Equal(warm, coldCopy) {
		t.Fatalf("hit bytes %q != cold bytes %q", warm, coldCopy)
	}

	fresh, err2 := compute()
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(warm, fresh) {
		t.Fatalf("hit bytes %q != recomputed bytes %q", warm, fresh)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(8)
	boom := errors.New("transient")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.GetOrCompute(key("err"), func() ([]byte, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want %v", i, err, boom)
		}
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (errors must not be cached)", calls)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after errors, want 0", st.Entries)
	}
}

func TestPanicConvertedToError(t *testing.T) {
	c := New(8)
	_, _, err := c.GetOrCompute(key("panic"), func() ([]byte, error) {
		panic("cell exploded")
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("cell exploded")) {
		t.Fatalf("err = %v, want panic message surfaced", err)
	}
	// The key must be retryable afterwards.
	v, _, err := c.GetOrCompute(key("panic"), func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry after panic: %q, %v", v, err)
	}
}

// TestFingerprintDeterministic pins the canonical-rendering contract
// on the real machine configurations the service hashes.
func TestFingerprintDeterministic(t *testing.T) {
	a1 := Fingerprint(model.DefaultAlphaConfig())
	a2 := Fingerprint(model.DefaultAlphaConfig())
	if a1 != a2 {
		t.Fatal("two renderings of the same config differ")
	}
	if a1 == Fingerprint(model.SimInitialConfig()) {
		t.Fatal("sim-alpha and sim-initial configs fingerprint identically")
	}
	if a1 == Fingerprint(model.DefaultRUUConfig()) {
		t.Fatal("alpha and ruu configs fingerprint identically")
	}

	cfg := model.DefaultAlphaConfig()
	cfg.ROB++
	if a1 == Fingerprint(cfg) {
		t.Fatal("changing ROB size did not change the fingerprint")
	}
}

// TestFingerprintSkipsUnexportedFields pins the skip side of the
// contract: unexported fields are not observable content, so values
// differing only there fingerprint identically — and must therefore
// never carry semantics a cache key has to distinguish.
func TestFingerprintSkipsUnexportedFields(t *testing.T) {
	type cfg struct {
		Size    int
		scratch int // private state, deliberately invisible
	}
	a := cfg{Size: 8, scratch: 1}
	b := cfg{Size: 8, scratch: 99}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("unexported field leaked into the fingerprint")
	}
	if Fingerprint(a) == Fingerprint(cfg{Size: 9, scratch: 1}) {
		t.Fatal("exported field change did not change the fingerprint")
	}
}

// TestFingerprintDereferencesPointers pins content addressing through
// pointers: the pointee's content is rendered, never its address, and
// nil renders distinctly.
func TestFingerprintDereferencesPointers(t *testing.T) {
	type inner struct{ N int }
	type cfg struct{ P *inner }
	x, y := &inner{N: 7}, &inner{N: 7}
	if Fingerprint(cfg{P: x}) != Fingerprint(cfg{P: y}) {
		t.Fatal("distinct pointers to equal content fingerprint differently")
	}
	v := inner{N: 7}
	if Fingerprint(&v) != Fingerprint(v) {
		t.Fatal("top-level pointer is not dereferenced")
	}
	if Fingerprint(cfg{P: x}) == Fingerprint(cfg{}) {
		t.Fatal("nil pointer aliases a populated one")
	}
	if Fingerprint(cfg{P: x}) == Fingerprint(cfg{P: &inner{N: 8}}) {
		t.Fatal("pointee content change did not change the fingerprint")
	}
}

// TestFingerprintOpaqueKinds pins the documented caveat: funcs (and
// channels) render by type and nil-ness only, so two different
// closures of one type alias. Sweep axes over such fields are
// rejected by sweep.Space.Check for exactly this reason.
func TestFingerprintOpaqueKinds(t *testing.T) {
	type cfg struct{ New func() int }
	f1 := cfg{New: func() int { return 1 }}
	f2 := cfg{New: func() int { return 2 }}
	if Fingerprint(f1) != Fingerprint(f2) {
		t.Fatal("distinct closures of one type fingerprint differently (addresses leaked)")
	}
	if Fingerprint(f1) == Fingerprint(cfg{}) {
		t.Fatal("nil and non-nil funcs alias")
	}
}

// TestFingerprintSweepMutationsDistinct walks every scalar knob a
// sweep commonly mutates on the real alpha config and requires each
// single-field mutation to produce a distinct fingerprint — the
// property that keeps one sweep point's cached cells from being
// served for another's.
func TestFingerprintSweepMutationsDistinct(t *testing.T) {
	base := Fingerprint(model.DefaultAlphaConfig())
	seen := map[string]string{"base": base}
	mutations := map[string]func(*model.AlphaConfig){
		"ROB":             func(c *model.AlphaConfig) { c.ROB /= 2 },
		"IntIssueWidth":   func(c *model.AlphaConfig) { c.IntIssueWidth = 2 },
		"RenameRegs":      func(c *model.AlphaConfig) { c.RenameRegs /= 2 },
		"Hier.L2.HitLat":  func(c *model.AlphaConfig) { c.Hier.L2.HitLatency *= 2 },
		"DRAM.CASCycles":  func(c *model.AlphaConfig) { c.DRAM.CASCycles *= 2 },
		"DRAM.OpenPage":   func(c *model.AlphaConfig) { c.DRAM.OpenPage = !c.DRAM.OpenPage },
		"Tour.GlobalHist": func(c *model.AlphaConfig) { c.Tour.GlobalHistBits = 2 },
		"Bugs.LateBranch": func(c *model.AlphaConfig) { c.Bugs.LateBranchRecovery = true },
	}
	for name, mutate := range mutations {
		c := model.DefaultAlphaConfig()
		mutate(&c)
		fp := Fingerprint(c)
		for prev, prevFP := range seen {
			if fp == prevFP {
				t.Errorf("mutation %q fingerprints identically to %q", name, prev)
			}
		}
		seen[name] = fp
	}
}

func TestFingerprintMapOrderIndependent(t *testing.T) {
	m1 := map[string]uint64{"a": 1, "b": 2, "c": 3}
	m2 := map[string]uint64{"c": 3, "b": 2, "a": 1}
	if Fingerprint(m1) != Fingerprint(m2) {
		t.Fatal("map fingerprints depend on insertion order")
	}
}

func TestKeyOfBoundaries(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("part boundaries are not hashed")
	}
	if KeyOf("a") == KeyOf("a", "") {
		t.Fatal("empty trailing part does not change the key")
	}
}

func TestCapacityDefault(t *testing.T) {
	for _, n := range []int{0, -5} {
		if got := New(n).Stats().Capacity; got != DefaultCapacity {
			t.Errorf("New(%d).Capacity = %d, want %d", n, got, DefaultCapacity)
		}
	}
}

// TestConcurrentMixedKeys drives distinct and colliding keys together
// under -race to audit the insert/evict path against the flight path.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("k%d", (g+i)%8)
				v, _, err := c.GetOrCompute(key(name), func() ([]byte, error) {
					return []byte(name), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if string(v) != name {
					t.Errorf("key %s served %q", name, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSampledKeysDistinctFromFull pins the KeyOf properties sampled
// keys rely on: a key whose parts carry a sampling plan never collides
// with the full-run key for the same (machine × workload), distinct
// plans give distinct keys, and distinct version prefixes are distinct
// key namespaces.
func TestSampledKeysDistinctFromFull(t *testing.T) {
	machine := Fingerprint(model.DefaultAlphaConfig())
	work := Fingerprint(struct {
		Name string
		Max  uint64
	}{"gzip", 15_000})
	plan := Fingerprint(struct{ Period, Warmup, Measure uint64 }{1500, 150, 150})

	full := KeyOf("run/v1", machine, work)
	sampled := KeyOf("sample/v1", machine, work, plan)
	if full == sampled {
		t.Fatal("sampled and full cells share a key")
	}
	// Two different plans over the same cell are different addresses.
	plan2 := Fingerprint(struct{ Period, Warmup, Measure uint64 }{3000, 300, 300})
	if KeyOf("sample/v1", machine, work, plan2) == sampled {
		t.Fatal("distinct sampling plans share a key")
	}
	// Prefixes are namespaces: identical payloads under different
	// version prefixes never meet.
	for _, pair := range [][2]string{
		{"run/v1", "sample/v1"},
		{"sample/v1", "sweep/v1"},
		{"run/v1", "sweep/v1"},
	} {
		if KeyOf(pair[0], machine, work) == KeyOf(pair[1], machine, work) {
			t.Errorf("prefixes %q and %q collide", pair[0], pair[1])
		}
	}
}
