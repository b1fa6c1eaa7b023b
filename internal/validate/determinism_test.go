package validate

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/macrobench"
	"repro/internal/model"
	"repro/internal/simcache"
)

// TestParallelMergeDeterminism is the engine's core guarantee: the
// rendered output of an experiment is byte-identical whether its
// cells run on one worker or race across eight, because results are
// merged by cell index, never by completion order.
func TestParallelMergeDeterminism(t *testing.T) {
	serial := quick
	serial.Parallelism = 1
	wide := quick
	wide.Parallelism = 8

	s, err := Table2(serial)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Table2(wide)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != w.String() {
		t.Errorf("Table2 output depends on parallelism\n--- j=1 ---\n%s--- j=8 ---\n%s",
			s.String(), w.String())
	}
}

// TestAttributionDeterminism holds the generated-workload experiment
// to the same guarantee: generation is seeded from spec names, so the
// whole pipeline — generate, run both tiers, detect cliffs — renders
// byte-identically at any parallelism and across repeated runs.
func TestAttributionDeterminism(t *testing.T) {
	serial := quick
	serial.Parallelism = 1
	wide := quick
	wide.Parallelism = 8

	s, err := Attribution(serial)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Attribution(wide)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != w.String() {
		t.Errorf("Attribution output depends on parallelism\n--- j=1 ---\n%s--- j=8 ---\n%s",
			s.String(), w.String())
	}
	again, err := Attribution(wide)
	if err != nil {
		t.Fatal(err)
	}
	if w.String() != again.String() {
		t.Errorf("Attribution output differs between repeated runs")
	}
}

// TestSampledDeterminism holds sampled runs to the same guarantee:
// the sampled experiment — interval schedules, warming, confidence
// intervals and all — renders byte-identically at any parallelism and
// across repeated runs.
func TestSampledDeterminism(t *testing.T) {
	serial := quick
	serial.Parallelism = 1
	wide := quick
	wide.Parallelism = 8

	s, err := Sampled(serial)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Sampled(wide)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != w.String() {
		t.Errorf("Sampled output depends on parallelism\n--- j=1 ---\n%s--- j=8 ---\n%s",
			s.String(), w.String())
	}
	again, err := Sampled(wide)
	if err != nil {
		t.Fatal(err)
	}
	if w.String() != again.String() {
		t.Errorf("Sampled output differs between repeated runs")
	}
}

// TestCrossModelParallelDeterminism extends the merge-determinism
// guarantee across every timing model and every optimized hot path:
// Table3 runs the native reference, sim-initial, sim-alpha and
// sim-outorder on the macro suite; Table4 runs the ten
// feature-ablation variants (each toggling a different fast path in
// the 21264 core); Table1 leans on the issue-scan and latency paths.
// Each must render byte-identically on one worker and on eight. This
// is the regression net for event-driven scan gating and the other
// performance shortcuts: any of them leaking state across runs or
// depending on scheduling shows up here as a table diff.
func TestCrossModelParallelDeterminism(t *testing.T) {
	serial := quick
	serial.Parallelism = 1
	wide := quick
	wide.Parallelism = 8

	t.Run("Table1", func(t *testing.T) {
		t.Parallel()
		s, err := Table1(serial)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Table1(wide)
		if err != nil {
			t.Fatal(err)
		}
		if s.String() != w.String() {
			t.Errorf("Table1 output depends on parallelism\n--- j=1 ---\n%s--- j=8 ---\n%s",
				s.String(), w.String())
		}
	})
	t.Run("Table3", func(t *testing.T) {
		t.Parallel()
		s, err := Table3(serial)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Table3(wide)
		if err != nil {
			t.Fatal(err)
		}
		if s.String() != w.String() {
			t.Errorf("Table3 output depends on parallelism\n--- j=1 ---\n%s--- j=8 ---\n%s",
				s.String(), w.String())
		}
	})
	t.Run("Table4", func(t *testing.T) {
		t.Parallel()
		s, err := Table4(serial)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Table4(wide)
		if err != nil {
			t.Fatal(err)
		}
		if s.String() != w.String() {
			t.Errorf("Table4 output depends on parallelism\n--- j=1 ---\n%s--- j=8 ---\n%s",
				s.String(), w.String())
		}
	})
}

// TestStabilityDeterminism holds the cross-tier stability experiment
// to the merge-determinism guarantee: identical rendered output on
// one worker and on eight. The experiment's whole point is comparing
// rankings, so a scheduling-dependent cell merge would invalidate the
// flip report silently.
func TestStabilityDeterminism(t *testing.T) {
	serial := quick
	serial.Parallelism = 1
	wide := quick
	wide.Parallelism = 8

	s, err := Stability(serial)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Stability(wide)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != w.String() {
		t.Errorf("Stability output depends on parallelism\n--- j=1 ---\n%s--- j=8 ---\n%s",
			s.String(), w.String())
	}
}

// TestMemoryDeterminism holds the memory-error experiment — the DDR
// calibration descent, both error grids, and the tier comparison —
// to the merge-determinism guarantee: byte-identical rendered output
// on one worker and on eight, and across repeated runs. The DDR
// controller carries much more internal state (per-bank queues, rank
// activation ledgers, channel bus reservations) than the flat model,
// so any of it leaking between runs or depending on scheduling shows
// up here.
func TestMemoryDeterminism(t *testing.T) {
	serial := quick
	serial.Parallelism = 1
	wide := quick
	wide.Parallelism = 8

	s, err := Memory(serial)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Memory(wide)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != w.String() {
		t.Errorf("Memory output depends on parallelism\n--- j=1 ---\n%s--- j=8 ---\n%s",
			s.String(), w.String())
	}
	again, err := Memory(wide)
	if err != nil {
		t.Fatal(err)
	}
	if w.String() != again.String() {
		t.Errorf("Memory output differs between repeated runs")
	}
}

// TestDDRBackedRunDeterminism pins DDR-backed machines themselves (as
// opposed to the experiment built on them): fresh builds of the
// sim-alpha-ddr and sim-interval-ddr backends replay a workload to
// bit-identical results, counters included.
func TestDDRBackedRunDeterminism(t *testing.T) {
	for _, name := range []string{"sim-alpha-ddr", "sim-interval-ddr"} {
		d, err := model.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws := quick.apply(macrobench.Suite())
		w := ws[0]
		a, err := model.MustBuild(d.Config).Run(w)
		if err != nil {
			t.Fatal(err)
		}
		b, err := model.MustBuild(d.Config).Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s replay diverged on %s:\n  %+v\nvs\n  %+v", name, w.Name, a, b)
		}
	}
}

// TestModelFingerprintsUnchanged pins the simcache fingerprints of the
// four timing-model configurations. The performance pass must be
// invisible here: fingerprints hash only exported configuration, so a
// hot-loop change that alters one means cached simulation results
// would no longer be reused against semantically identical configs (or
// worse, that tuning leaked into the architecture being modeled).
// If a deliberate configuration change lands, re-bless the digests.
func TestModelFingerprintsUnchanged(t *testing.T) {
	digests := map[string]struct {
		cfg  any
		want string
	}{
		"sim-alpha":    {model.DefaultAlphaConfig(), "0f060d28b20ca3870e7d04aac828e2be5d08c28f2b469601f72cf519550ce1e7"},
		"sim-initial":  {model.SimInitialConfig(), "7f668a90f3554115f5a251b3438df7acdb6dfdf2230645cbd618b0655051b2d4"},
		"sim-outorder": {model.DefaultRUUConfig(), "29e8a26f889057562ae9ff3b7d560fa9349fac14a26d32418b2fc85adaecd093"},
		"sim-inorder":  {model.DefaultInorderConfig(), "af1f656c191e77a2f1d6bf4211eac60e3e26c0ae9f5a43a9a5c14e42288427fb"},
	}
	for name, d := range digests {
		got := simcache.KeyOf(simcache.Fingerprint(d.cfg)).String()
		if got != d.want {
			t.Errorf("%s config fingerprint changed:\n  got  %s\n  want %s", name, got, d.want)
		}
	}
}

// TestConcurrentExperiments runs two whole experiments at once, each
// internally parallel, over the shared workload caches. Under
// `go test -race` this is the concurrency audit for the sync.Once
// suites and any latent aliasing of programs between machines.
func TestConcurrentExperiments(t *testing.T) {
	short := Options{Limit: 4_000, Parallelism: 4}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := Table2(short); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := MappingStudy(short); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
}
