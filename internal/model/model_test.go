package model

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/microbench"
)

func TestRegistryContents(t *testing.T) {
	want := []struct {
		name string
		tier Tier
	}{
		{"native-ds10l", TierDetailed},
		{"sim-initial", TierDetailed},
		{"sim-alpha", TierDetailed},
		{"sim-stripped", TierDetailed},
		{"sim-outorder", TierSimplified},
		{"sim-inorder", TierSimplified},
		{"sim-interval", TierAnalytical},
		{"sim-alpha-ddr", TierDetailed},
		{"sim-interval-ddr", TierAnalytical},
	}
	got := Backends()
	if len(got) != len(want) {
		t.Fatalf("registry has %d backends, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name {
			t.Errorf("backend %d: name %q, want %q", i, got[i].Name, w.name)
		}
		if got[i].Tier != w.tier {
			t.Errorf("%s: tier %q, want %q", w.name, got[i].Tier, w.tier)
		}
		if got[i].Config == nil {
			t.Errorf("%s: nil Config", w.name)
		}
		if got[i].Description == "" {
			t.Errorf("%s: empty description", w.name)
		}
	}
}

func TestNamesMatchMachines(t *testing.T) {
	for _, d := range Backends() {
		if got := MustBuild(d.Config).Name(); got != d.Name {
			t.Errorf("descriptor %q constructs machine named %q", d.Name, got)
		}
	}
}

// TestCapabilitiesMatchAssertions checks every backend's discovered
// flags against direct interface assertions on a fresh machine — the
// registry must never diverge from what the types implement.
func TestCapabilitiesMatchAssertions(t *testing.T) {
	for _, d := range Backends() {
		m := MustBuild(d.Config)
		_, ckpt := m.(core.CheckpointRecorder)
		_, smpl := m.(core.SampleCapable)
		_, stack := m.(core.StackCapable)
		caps := d.Capabilities()
		if caps.Checkpointable != ckpt || caps.Samplable != smpl || caps.CPIStack != stack {
			t.Errorf("%s: Capabilities() %+v, assertions ckpt=%v smpl=%v stack=%v",
				d.Name, caps, ckpt, smpl, stack)
		}
	}
}

func TestExpectedCapabilities(t *testing.T) {
	want := map[string]Capabilities{
		"native-ds10l":     {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-initial":      {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-alpha":        {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-stripped":     {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-outorder":     {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-inorder":      {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-interval":     {Checkpointable: false, Samplable: false, CPIStack: true},
		"sim-alpha-ddr":    {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-interval-ddr": {Checkpointable: false, Samplable: false, CPIStack: true},
	}
	for _, d := range Backends() {
		if got, w := d.Capabilities(), want[d.Name]; got != w {
			t.Errorf("%s: capabilities %+v, want %+v", d.Name, got, w)
		}
	}
}

func TestByNameAliases(t *testing.T) {
	exact, err := ByName("sim-interval")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := ByName("interval")
	if err != nil {
		t.Fatalf("bare alias: %v", err)
	}
	if exact.Name != bare.Name {
		t.Errorf("alias resolved to %q, want %q", bare.Name, exact.Name)
	}
}

func TestUnknownBackend(t *testing.T) {
	_, err := ByName("sim-nonesuch")
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("error %v does not wrap ErrUnknownBackend", err)
	}
	if !strings.Contains(err.Error(), "sim-alpha") {
		t.Errorf("error %q does not list available backends", err)
	}
	if _, err := New("sim-nonesuch"); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("New: error %v does not wrap ErrUnknownBackend", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	expectPanic := func(name string, d Descriptor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(d)
	}
	cfg := DefaultAlphaConfig()
	expectPanic("empty name", Descriptor{Tier: TierDetailed, Config: cfg})
	expectPanic("duplicate", Descriptor{Name: "sim-alpha", Tier: TierDetailed, Config: cfg})
	expectPanic("bad tier", Descriptor{Name: "sim-x", Tier: Tier("exact"), Config: cfg})
	expectPanic("nil config", Descriptor{Name: "sim-y", Tier: TierDetailed})
	bad := cfg
	bad.ROB = 0
	expectPanic("config failing Check", Descriptor{Name: "sim-z", Tier: TierDetailed, Config: bad})
}

func TestBuild(t *testing.T) {
	for _, cfg := range []any{
		DefaultAlphaConfig(),
		SimInitialConfig(),
		DefaultRUUConfig(),
		DefaultInorderConfig(),
		DefaultIntervalConfig(),
		SimAlphaDDRConfig(),
		SimIntervalDDRConfig(),
		DefaultNativeConfig(),
	} {
		m, err := Build(cfg)
		if err != nil {
			t.Fatalf("Build(%T): %v", cfg, err)
		}
		if m == nil {
			t.Fatalf("Build(%T): nil machine", cfg)
		}
	}
	if _, err := Build(struct{ X int }{1}); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("Build on unknown config type: %v does not wrap ErrUnknownBackend", err)
	}
	bad := DefaultAlphaConfig()
	bad.FetchWidth = 0
	if _, err := Build(bad); err == nil {
		t.Error("Build accepted a config failing Check")
	}
	badDDR := SimAlphaDDRConfig()
	badDDR.DDR.RowPolicy = "lru"
	if _, err := Build(badDDR); err == nil {
		t.Error("Build accepted a DDR config failing Check")
	}
	badMap := DefaultRUUConfig()
	badMap.Mapping.Policy = "page-colored" // Colors 0: Check fails, no panic
	if _, err := Build(badMap); err == nil {
		t.Error("Build accepted a page-colored mapping with no colors")
	}
	badNative := DefaultNativeConfig()
	badNative.Prof.JitterPPM = 1 << 40
	if _, err := Build(badNative); err == nil {
		t.Error("Build accepted a native config failing Check")
	}
	badInorder := DefaultInorderConfig()
	badInorder.BimodalBits = -1
	if _, err := Build(badInorder); err == nil {
		t.Error("Build accepted an inorder config failing Check")
	}
}

func TestRegisteredConfigsBuild(t *testing.T) {
	for _, d := range Backends() {
		if _, err := Build(d.Config); err != nil {
			t.Errorf("%s: registered config does not Build: %v", d.Name, err)
		}
	}
}

// TestNewIsBuildOfConfig checks that a backend's name and its config
// value denote the same machine: New(name) is Build(d.Config).
func TestNewIsBuildOfConfig(t *testing.T) {
	for _, d := range Backends() {
		byName, err := New(d.Name)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if byCfg := MustBuild(d.Config); !reflect.DeepEqual(byName, byCfg) {
			t.Errorf("%s: New(name) and Build(Config) build different machines:\n  %#v\nvs\n  %#v",
				d.Name, byName, byCfg)
		}
	}
}

// TestMachineIsItsConfig checks that a backend's machine is its
// config value itself, not a wrapper around it: what a cache key
// fingerprints is exactly what runs.
func TestMachineIsItsConfig(t *testing.T) {
	for _, d := range Backends() {
		if m := MustBuild(d.Config); m != d.Config {
			t.Errorf("%s: Build(Config) returned %T, not the config", d.Name, m)
		}
		if m := MustNew(d.Name); m != d.Config {
			t.Errorf("%s: New(name) returned %T, not the config", d.Name, m)
		}
	}
}

// TestBadConfigRunIsError runs a config failing Check on each backend
// config type directly, bypassing Build as any layer holding a config
// alias can: Run, and RecordCheckpoints where the type records, must
// return Check's error, never panic or simulate.
func TestBadConfigRunIsError(t *testing.T) {
	badAlpha := DefaultAlphaConfig()
	badAlpha.ROB = 0
	badRUU := DefaultRUUConfig()
	badRUU.RUUSize = 1
	badInorder := DefaultInorderConfig()
	badInorder.BimodalBits = -1
	badInterval := DefaultIntervalConfig()
	badInterval.Width = 0
	badNative := DefaultNativeConfig()
	badNative.Prof.JitterPPM = 2_000_000
	w, ok := microbench.ByName("C-Ca")
	if !ok {
		t.Fatal("no C-Ca workload")
	}
	for _, cfg := range []interface {
		core.Machine
		Check() error
	}{badAlpha, badRUU, badInorder, badInterval, badNative} {
		want := cfg.Check()
		if want == nil {
			t.Fatalf("%T: bad config passed Check", cfg)
		}
		if _, err := cfg.Run(w); err == nil || err.Error() != want.Error() {
			t.Errorf("%T: Run error %v, want Check's %v", cfg, err, want)
		}
		if rec, ok := cfg.(core.CheckpointRecorder); ok {
			if _, err := rec.RecordCheckpoints(w, []uint64{1000}); err == nil || err.Error() != want.Error() {
				t.Errorf("%T: RecordCheckpoints error %v, want Check's %v", cfg, err, want)
			}
		}
	}
}

// TestConfigsFullyObservable checks that every registered config
// fingerprints by content alone: no field renders as an opaque func,
// channel or pointer, so two machines that behave differently can
// never share a cache key through a field the fingerprint cannot see.
func TestConfigsFullyObservable(t *testing.T) {
	for _, d := range Backends() {
		if fp := fingerprint.Of(d.Config); strings.Contains(fp, "<opaque") {
			t.Errorf("%s: config fingerprint has an opaque field: %s", d.Name, fp)
		}
	}
}
