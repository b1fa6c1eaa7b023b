package diskstore

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/sample"
	"repro/internal/simcache"
	"repro/internal/workgen"
)

func TestObjectRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("the content is the address")
	h, err := s.PutObject(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 64 {
		t.Fatalf("address %q is not a sha256 hex digest", h)
	}
	// Idempotent re-put.
	h2, err := s.PutObject(blob)
	if err != nil || h2 != h {
		t.Fatalf("re-put: %q, %v; want %q", h2, err, h)
	}
	got, err := s.GetObject(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("got %q, want %q", got, blob)
	}
}

func TestObjectVerification(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetObject("not-an-address"); err == nil {
		t.Error("malformed address accepted")
	}
	h, err := s.PutObject([]byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath(h), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetObject(h); err == nil {
		t.Error("corrupted object served without error")
	}
}

func TestKeyedTier(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := simcache.KeyOf("cell", "a")
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put(k, []byte("result bytes"))
	got, ok := s.Get(k)
	if !ok || string(got) != "result bytes" {
		t.Fatalf("got %q, %v", got, ok)
	}
	if n := s.PutErrors(); n != 0 {
		t.Fatalf("%d put errors on a healthy store", n)
	}
}

// TestSimcacheTier2 wires a Store behind two independent in-memory
// caches: what the first computes, the second must serve from disk
// without running its compute function.
func TestSimcacheTier2(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := simcache.KeyOf("cell", "b")

	c1 := simcache.New(8)
	c1.SetTier2(s)
	v, cached, err := c1.GetOrCompute(k, func() ([]byte, error) { return []byte("computed"), nil })
	if err != nil || cached || string(v) != "computed" {
		t.Fatalf("cold compute: %q cached=%v err=%v", v, cached, err)
	}

	c2 := simcache.New(8)
	c2.SetTier2(s)
	v, cached, err = c2.GetOrCompute(k, func() ([]byte, error) {
		t.Fatal("compute ran despite tier-2 hit")
		return nil, nil
	})
	if err != nil || !cached || string(v) != "computed" {
		t.Fatalf("tier-2 read: %q cached=%v err=%v", v, cached, err)
	}
	if st := c2.Stats(); st.Tier2Hits != 1 {
		t.Fatalf("Tier2Hits = %d, want 1", st.Tier2Hits)
	}
}

// TestLibraryRoundTrip records a small checkpoint library, stores it,
// reloads it, and requires the reloaded states to produce the same
// sampled estimate as the in-memory originals.
func TestLibraryRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := model.MustBuild(model.DefaultAlphaConfig())
	w, ok := microbench.ByName("C-Ca")
	if !ok {
		t.Fatal("no C-Ca workload")
	}
	w.MaxInstructions = 3000
	plan := core.SamplePlan{Period: 1000, Warmup: 100, Measure: 50}
	lib, err := sample.BuildLibrary(m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sample.RunWithLibrary(m, w, lib, plan, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	path, err := s.SaveLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != filepath.Join(s.Dir(), "libraries") {
		t.Fatalf("manifest landed at %s", path)
	}
	libs, err := s.Libraries()
	if err != nil {
		t.Fatal(err)
	}
	if len(libs) != 1 || libs[0].Workload != "C-Ca" || len(libs[0].States) != 0 {
		t.Fatalf("manifest listing: %+v", libs)
	}

	loaded, err := s.LoadLibrary("C-Ca", m.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.States) != len(lib.States) {
		t.Fatalf("loaded %d states, want %d", len(loaded.States), len(lib.States))
	}
	for i := range lib.States {
		a, err := checkpoint.Encode(lib.States[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := checkpoint.Encode(loaded.States[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("state %d not byte-identical after disk round trip", i)
		}
	}
	got, err := sample.RunWithLibrary(m, w, loaded, plan, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.CPI.Mean != want.CPI.Mean {
		t.Fatalf("reloaded library CPI %.6f, original %.6f", got.CPI.Mean, want.CPI.Mean)
	}
}

// TestLoadLibrarySelection: a missing workload errors, two libraries
// for one workload are ambiguous without a machine match, and a
// machine match disambiguates.
func TestLoadLibrarySelection(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadLibrary("nope", ""); err == nil {
		t.Error("missing library loaded without error")
	}

	m := model.MustBuild(model.DefaultAlphaConfig())
	w, _ := microbench.ByName("C-Ca")
	w.MaxInstructions = 2000
	plan := core.SamplePlan{Period: 1000, Warmup: 100, Measure: 50}
	lib, err := sample.BuildLibrary(m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveLibrary(lib); err != nil {
		t.Fatal(err)
	}
	// A second manifest for the same workload under a different
	// machine and compat.
	other := *lib
	other.Machine = "sim-other"
	other.Compat = "0000000000000000-different"
	if _, err := s.SaveLibrary(&other); err != nil {
		t.Fatal(err)
	}

	if _, err := s.LoadLibrary("C-Ca", "sim-unknown"); err == nil {
		t.Error("ambiguous load succeeded")
	}
	got, err := s.LoadLibrary("C-Ca", "sim-other")
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != "sim-other" {
		t.Fatalf("loaded library for machine %q, want sim-other", got.Machine)
	}
}

// TestKeyedCorruptionFallback plants a flipped byte in a keyed entry
// and requires Get to degrade to a counted miss (rotten file removed)
// so the tier above recomputes and the recomputed result can land.
func TestKeyedCorruptionFallback(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := simcache.KeyOf("cell", "corrupt")
	s.Put(k, []byte("pristine result"))
	path := s.keyPath(k)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01 // flip one payload bit
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if v, ok := s.Get(k); ok {
		t.Fatalf("corrupted entry served as a hit: %q", v)
	}
	if n := s.CorruptReads(); n != 1 {
		t.Fatalf("CorruptReads = %d, want 1", n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rotten file still on disk (stat err %v)", err)
	}

	// The cache above must fall back to compute, and the recomputed
	// value must write through past the removed file.
	c := simcache.New(8)
	c.SetTier2(s)
	v, cached, err := c.GetOrCompute(k, func() ([]byte, error) { return []byte("recomputed"), nil })
	if err != nil || cached || string(v) != "recomputed" {
		t.Fatalf("fallback compute: %q cached=%v err=%v", v, cached, err)
	}
	if v, ok := s.Get(k); !ok || string(v) != "recomputed" {
		t.Fatalf("recomputed entry not re-persisted: %q ok=%v", v, ok)
	}

	// A truncated envelope (shorter than a digest) is also a counted
	// miss, not a panic.
	k2 := simcache.KeyOf("cell", "short")
	s.Put(k2, []byte("x"))
	if err := os.WriteFile(s.keyPath(k2), []byte("stub"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k2); ok {
		t.Fatal("truncated envelope served as a hit")
	}
	if n := s.CorruptReads(); n != 2 {
		t.Fatalf("CorruptReads after truncation = %d, want 2", n)
	}
}

// TestWorkloadSpecRoundTrip covers the persisted generated-workload
// catalogue: save, list (sorted), idempotent re-save, unsafe-name
// rejection, and a rotten spec file degrading to a counted skip.
func TestWorkloadSpecRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.WorkloadSpecs()
	if err != nil || len(specs) != 0 {
		t.Fatalf("empty store listed %d specs (err %v)", len(specs), err)
	}

	b := workgen.DefaultSpec()
	b.Seed = 7
	a := workgen.DefaultSpec()
	a.Seed = 3
	for _, sw := range []SavedWorkload{
		{Spec: b, Family: "fam", Axis: "working-set", Level: 16},
		{Spec: a},
	} {
		if err := s.SaveWorkloadSpec(sw); err != nil {
			t.Fatal(err)
		}
	}
	// Idempotent re-save of the same name.
	if err := s.SaveWorkloadSpec(SavedWorkload{Spec: a}); err != nil {
		t.Fatal(err)
	}

	specs, err = s.WorkloadSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("listed %d specs, want 2", len(specs))
	}
	if specs[0].Name >= specs[1].Name {
		t.Fatalf("listing not sorted: %q, %q", specs[0].Name, specs[1].Name)
	}
	for _, sw := range specs {
		if sw.Name != sw.Spec.Name() {
			t.Errorf("name %q does not match spec name %q", sw.Name, sw.Spec.Name())
		}
		if sw.Spec.Name() == b.Name() && (sw.Family != "fam" || sw.Level != 16) {
			t.Errorf("family placement lost: %+v", sw)
		}
	}

	// Unsafe names never reach the filesystem. (An empty name is not
	// unsafe — it defaults to the spec's canonical name.)
	for _, name := range []string{"../escape", "a/b", `a\b`, ".hidden"} {
		if err := s.SaveWorkloadSpec(SavedWorkload{Name: name, Spec: a}); err == nil {
			t.Errorf("unsafe name %q accepted", name)
		}
	}

	// A rotten spec file is skipped and counted, not fatal.
	if err := os.WriteFile(filepath.Join(s.Dir(), "workloads", "junk.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := s.CorruptReads()
	specs, err = s.WorkloadSpecs()
	if err != nil || len(specs) != 2 {
		t.Fatalf("listing with rotten file: %d specs, err %v", len(specs), err)
	}
	if s.CorruptReads() != before+1 {
		t.Fatalf("CorruptReads = %d, want %d", s.CorruptReads(), before+1)
	}
}

// FuzzStoreGet writes arbitrary bytes where a keyed entry lives and
// reads them back: Get must never panic, must return the payload only
// when the first 32 bytes are the SHA-256 of the rest, and otherwise
// must count a corrupt read and remove the file so a recomputed result
// can land. Each fuzz process opens one store and every exec rewrites
// the same entry: opening a store builds a directory tree, which would
// cost more than the read under test.
func FuzzStoreGet(f *testing.F) {
	k := simcache.KeyOf("fuzz")
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := s.keyPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.CorruptReads()
		got, ok := s.Get(k)
		corrupt := s.CorruptReads() - before
		valid := len(blob) >= sha256.Size
		if valid {
			sum := sha256.Sum256(blob[sha256.Size:])
			valid = bytes.Equal(sum[:], blob[:sha256.Size])
		}
		_, statErr := os.Stat(path)
		switch {
		case valid && (!ok || !bytes.Equal(got, blob[sha256.Size:])):
			t.Fatalf("valid envelope: Get = %q, %v", got, ok)
		case valid && (corrupt != 0 || statErr != nil):
			t.Fatalf("valid envelope counted corrupt (%d) or removed (%v)", corrupt, statErr)
		case !valid && (ok || got != nil):
			t.Fatalf("corrupt envelope served %q", got)
		case !valid && (corrupt != 1 || !os.IsNotExist(statErr)):
			t.Fatalf("corrupt envelope: %d corrupt reads, file stat %v; want 1 and removed", corrupt, statErr)
		}
	})
}
