package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/diskstore"
	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/workgen"
)

// mint mints workloads through the client.
func mint(t *testing.T, url string, req GenerateRequest) GenerateResponse {
	t.Helper()
	out, err := NewClient(url).Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func specBody(t *testing.T, s workgen.Spec) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Spec workgen.Spec `json:"spec"`
	}{s})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGenerateMintRunAndCacheNamespace is the service acceptance path
// for minting: a posted spec becomes a catalogue entry runnable on
// multiple backends, under keys that can never collide with a
// builtin's.
func TestGenerateMintRunAndCacheNamespace(t *testing.T) {
	s, ts := newTestServer(t)

	spec := workgen.DefaultSpec()
	spec.Iters = 300
	out := mint(t, ts.URL, GenerateRequest{Spec: &spec})
	if len(out.Workloads) != 1 || !out.Workloads[0].Minted || out.Workloads[0].Name != spec.Name() {
		t.Fatalf("mint response = %+v, want one minted %q", out.Workloads, spec.Name())
	}
	if got := s.Metrics().Counter("workgen_minted_total").Value(); got != 1 {
		t.Fatalf("workgen_minted_total = %d, want 1", got)
	}

	// Re-posting the identical spec is idempotent: no new entry, no
	// counter bump.
	out = mint(t, ts.URL, GenerateRequest{Spec: &spec})
	if len(out.Workloads) != 1 || out.Workloads[0].Minted {
		t.Fatalf("re-mint = %+v, want minted=false", out.Workloads)
	}
	if got := s.Metrics().Counter("workgen_minted_total").Value(); got != 1 {
		t.Fatalf("workgen_minted_total after re-mint = %d, want 1", got)
	}

	// The catalogue lists the minted entry as generated.
	_, _, body := get(t, ts.URL+"/v1/workloads")
	var infos []WorkloadInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, wi := range infos {
		if wi.Name == spec.Name() {
			found = true
			if !wi.Generated || wi.Suite != "generated" {
				t.Errorf("minted listing = %+v, want generated", wi)
			}
		}
	}
	if !found {
		t.Fatalf("minted workload %q missing from /v1/workloads", spec.Name())
	}

	// Runnable on two backends of different tiers, with distinct keys.
	keys := map[string]bool{}
	for _, machine := range []string{"sim-alpha", "sim-interval"} {
		code, hdr, body := get(t, fmt.Sprintf("%s/v1/run?machine=%s&workload=%s&limit=3000",
			ts.URL, machine, spec.Name()))
		if code != http.StatusOK {
			t.Fatalf("run %s/%s = %d: %s", machine, spec.Name(), code, body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.CPI <= 0 {
			t.Errorf("%s cpi = %v, want > 0", machine, rr.CPI)
		}
		keys[hdr.Get("X-Simcache-Key")] = true
	}
	if len(keys) != 2 {
		t.Fatalf("backends shared a cache key: %v", keys)
	}

	// Generated and builtin cells share the run/v1 namespace; the
	// workload identity's category keeps a generated cell's key apart
	// from a builtin's even were a name reused.
	gen := s.byWork[spec.Name()].w.Capped(3000)
	builtin := gen
	builtin.Category = s.byWork["gzip"].w.Category
	cfg := model.DefaultAlphaConfig()
	if sweep.CellKey("run/v1", cfg, gen) == sweep.CellKey("run/v1", cfg, builtin) {
		t.Fatal("workloads differing only in category share a cell key")
	}
}

// TestGenerateSampledRun exercises a sampled run of a minted workload
// on a samplable backend: it must succeed and live under a key
// distinct from the full-run key.
func TestGenerateSampledRun(t *testing.T) {
	_, ts := newTestServer(t)

	spec := workgen.DefaultSpec()
	spec.Iters = 2000
	mint(t, ts.URL, GenerateRequest{Spec: &spec})
	base := fmt.Sprintf("%s/v1/run?machine=sim-alpha&workload=%s&limit=20000", ts.URL, spec.Name())
	code, hdr, body := get(t, base)
	if code != http.StatusOK {
		t.Fatalf("full run = %d: %s", code, body)
	}
	fullKey := hdr.Get("X-Simcache-Key")

	code, hdr, body = get(t, base+"&sample=true&sample_period=5000&sample_warmup=500&sample_measure=500")
	if code != http.StatusOK {
		t.Fatalf("sampled run = %d: %s", code, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Sampled == nil || rr.Sampled.Intervals == 0 {
		t.Fatalf("sampled run returned no sampling info: %+v", rr)
	}
	if hdr.Get("X-Simcache-Key") == fullKey {
		t.Fatal("sampled and full runs share a cache key")
	}
}

// TestGenerateBuiltinCollision pins the ErrWorkloadExists guard: a
// generated name may never shadow a non-generated catalogue entry.
func TestGenerateBuiltinCollision(t *testing.T) {
	s, ts := newTestServer(t)

	// Plant a builtin-looking entry under the name the spec would mint
	// (no builtin naturally starts with "wg-", so the collision is
	// simulated white-box).
	spec := workgen.DefaultSpec()
	spec.Seed = 99
	s.wlMu.Lock()
	prev := s.byWork[spec.Name()]
	prev.suite = "micro"
	prev.gen = nil
	s.byWork[spec.Name()] = prev
	s.wlMu.Unlock()

	resp, err := http.Post(ts.URL+"/v1/workloads/generate", "application/json",
		strings.NewReader(specBody(t, spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("collision mint = %d (%s), want 409", resp.StatusCode, e.Error)
	}
	if !strings.Contains(e.Error, "already exists") || !strings.Contains(e.Error, "builtin") {
		t.Fatalf("collision error = %q, want ErrWorkloadExists text", e.Error)
	}
}

// TestGenerateBudget pins the 429 mint bound.
func TestGenerateBudget(t *testing.T) {
	s := New(Config{
		CacheEntries:   16,
		MaxConcurrent:  2,
		RequestTimeout: 30 * time.Second,
		Parallelism:    1,
		MaxGenerated:   1,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	first := workgen.DefaultSpec()
	mint(t, ts.URL, GenerateRequest{Spec: &first})
	second := first
	second.Seed = 2
	resp, err := http.Post(ts.URL+"/v1/workloads/generate", "application/json",
		strings.NewReader(specBody(t, second)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget mint = %d, want 429", resp.StatusCode)
	}
	// Re-minting the first spec stays idempotent even at the bound.
	if out := mint(t, ts.URL, GenerateRequest{Spec: &first}); out.Workloads[0].Minted {
		t.Fatalf("idempotent re-mint at bound = %+v", out.Workloads)
	}
}

// TestGenerateValidation pins the 400 paths.
func TestGenerateValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for name, body := range map[string]string{
		"empty":        `{}`,
		"both":         `{"spec":{},"family":{"name":"x","axis":"ilp-width","levels":[1,2]}}`,
		"bad-spec":     `{"spec":{"iters":-5}}`,
		"bad-family":   `{"family":{"name":"x","axis":"frobnication","levels":[1,2]}}`,
		"invalid-json": `{`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/workloads/generate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s = %d, want 400", name, resp.StatusCode)
			}
		})
	}
}

// TestGenerateFamilyMintAndSweep mints a whole family, then sweeps an
// axis over a second family generated inline by the sweep job itself.
func TestGenerateFamilyMintAndSweep(t *testing.T) {
	_, ts := newTestServer(t)

	base := workgen.DefaultSpec()
	base.Iters = 300
	fam := workgen.Family{
		Name: "ws-mini", Base: base,
		Axis: workgen.AxisWorkingSet, Levels: []int{8, 16, 32},
	}
	out := mint(t, ts.URL, GenerateRequest{Family: &fam})
	if len(out.Workloads) != 3 {
		t.Fatalf("family mint = %d workloads, want 3", len(out.Workloads))
	}
	for i, wi := range out.Workloads {
		if wi.Family != "ws-mini" || wi.Axis != workgen.AxisWorkingSet || wi.Level != fam.Levels[i] {
			t.Errorf("member %d = %+v, want family/axis/level set", i, wi)
		}
	}

	// Sweep over two minted members by name plus an inline family the
	// job generates itself. The inline ILP family's level-4 member IS
	// the base spec (same name as the minted working-set level-16
	// member), so the named picks skip level 16 to stay disjoint.
	inline := fam
	inline.Name = "ilp-mini"
	inline.Axis = workgen.AxisILPWidth
	inline.Levels = []int{1, 2, 4}
	info := submitSweep(t, ts.URL, SweepRequest{
		Machine:   "sim-alpha",
		Axes:      []SweepAxis{{Name: "issue", Field: "IntIssueWidth", Values: []any{4, 2}}},
		Workloads: []string{out.Workloads[0].Name, out.Workloads[2].Name},
		Generate:  &inline,
		Limit:     3000,
	})
	done := waitSweep(t, ts.URL, info.ID)
	if done.Status != sweepDone {
		t.Fatalf("sweep = %q (%s), want done", done.Status, done.Error)
	}
	if len(done.Result.Points) != 2 {
		t.Fatalf("sweep has %d points, want 2", len(done.Result.Points))
	}
	for _, p := range done.Result.Points {
		if len(p.Cells) != 5 { // 2 minted members + 3 inline members
			t.Fatalf("point %q has %d cells, want 5", p.Label, len(p.Cells))
		}
		for _, c := range p.Cells {
			if c.Instructions == 0 || c.Cycles == 0 {
				t.Fatalf("point %q cell %q is empty", p.Label, c.Workload)
			}
		}
	}
}

// newStoreServer builds a server backed by a diskstore at dir,
// simulating one `simd -store dir` process.
func newStoreServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	st, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		CacheEntries:   64,
		MaxConcurrent:  4,
		RequestTimeout: 60 * time.Second,
		Parallelism:    2,
		Tier2:          st,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestGeneratePersistAcrossRestart is the catalogue-persistence
// satellite: a workload minted on a store-backed server must still be
// served by name after a restart (a fresh Server over the same store
// directory), re-minting it must stay idempotent, and the diskstore
// corruption counter must surface on /metrics.
func TestGeneratePersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newStoreServer(t, dir)

	spec := workgen.DefaultSpec()
	spec.Iters = 300
	if out := mint(t, ts1.URL, GenerateRequest{Spec: &spec}); !out.Workloads[0].Minted {
		t.Fatalf("mint = %+v", out.Workloads)
	}
	if n := s1.Metrics().Counter("workgen_persist_errors_total").Value(); n != 0 {
		t.Fatalf("persist errors on mint: %d", n)
	}
	ts1.Close()

	// Plant one rotten spec file beside the real one: restore must
	// skip it, count it, and still serve the good workload.
	if err := os.WriteFile(filepath.Join(dir, "workloads", "junk.json"), []byte("{rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same store directory.
	s2, ts2 := newStoreServer(t, dir)
	if n := s2.Metrics().Counter("workgen_restored_total").Value(); n != 1 {
		t.Fatalf("workgen_restored_total = %d, want 1", n)
	}

	_, _, body := get(t, ts2.URL+"/v1/workloads")
	var infos []WorkloadInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, wi := range infos {
		if wi.Name == spec.Name() {
			found = true
			if !wi.Generated {
				t.Errorf("restored workload not marked generated: %+v", wi)
			}
		}
	}
	if !found {
		t.Fatalf("restored catalogue is missing %q", spec.Name())
	}

	// The restored name runs like any builtin.
	code, _, body := get(t, fmt.Sprintf("%s/v1/run?machine=sim-alpha&workload=%s&limit=3000", ts2.URL, spec.Name()))
	if code != http.StatusOK {
		t.Fatalf("run restored workload = %d: %s", code, body)
	}

	// Re-minting the restored spec is idempotent, not a conflict.
	if out := mint(t, ts2.URL, GenerateRequest{Spec: &spec}); out.Workloads[0].Minted {
		t.Fatalf("re-mint after restore = %+v, want minted=false", out.Workloads)
	}

	// The rotten spec surfaced on the store's corruption counter, and
	// /metrics mirrors it as diskstore_corrupt_total.
	_, _, body = get(t, ts2.URL+"/metrics")
	if !strings.Contains(string(body), "diskstore_corrupt_total 1") {
		t.Fatalf("/metrics missing diskstore_corrupt_total 1:\n%s", body)
	}
}
