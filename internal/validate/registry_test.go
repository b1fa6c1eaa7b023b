package validate

import "testing"

// TestRegistryComplete pins the registry to the paper-order list the
// golden tests cover, so an experiment added to the codebase without
// a registry entry (or vice versa) fails loudly.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "sampling", "memcal",
		"table3", "table4", "table5", "figure2", "mapping",
		"breakdown", "sweep", "calibration", "sampled", "stability",
		"attribution", "memory",
	}
	got := ExperimentNames()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, name := range want {
		e, ok := ExperimentByName(name)
		if !ok {
			t.Errorf("ExperimentByName(%q) missing", name)
			continue
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q lacks a title or runner", name)
		}
	}
	if _, ok := ExperimentByName("table9"); ok {
		t.Error("ExperimentByName invented an experiment")
	}
}

// TestExperimentByNameUnknown pins the miss behavior every consumer
// (cmd/validate's argument check, the service's 404 path) relies on:
// unknown, empty, and case-mangled names all return ok=false with a
// zero Experiment.
func TestExperimentByNameUnknown(t *testing.T) {
	for _, name := range []string{"", "nope", "Table2", "TABLE2", "table2 ", " sweep"} {
		e, ok := ExperimentByName(name)
		if ok {
			t.Errorf("ExperimentByName(%q) = %q, want miss", name, e.Name)
		}
		if e.Name != "" || e.Title != "" || e.Run != nil {
			t.Errorf("ExperimentByName(%q) miss returned non-zero Experiment %+v", name, e)
		}
	}
}

// TestRegistryNamesUnique guards the property ExperimentByName's
// first-match lookup depends on: duplicate names would silently
// shadow an experiment everywhere it is addressed by name.
func TestRegistryNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Experiments() {
		if e.Name == "" {
			t.Error("registry contains an unnamed experiment")
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q in registry", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestExperimentsReturnsCopy makes sure callers cannot corrupt the
// registry through the returned slice.
func TestExperimentsReturnsCopy(t *testing.T) {
	a := Experiments()
	a[0] = Experiment{Name: "clobbered"}
	if b := Experiments(); b[0].Name == "clobbered" {
		t.Error("Experiments exposes the registry's backing array")
	}
}

// TestRegistryRunMatchesDirectCall runs one experiment through the
// registry indirection and requires byte-identical output to the
// direct call — the property the HTTP service's cache relies on.
func TestRegistryRunMatchesDirectCall(t *testing.T) {
	opt := Options{Limit: 2_000}
	e, ok := ExperimentByName("table2")
	if !ok {
		t.Fatal("table2 missing from registry")
	}
	viaRegistry, err := e.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Table2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if viaRegistry.String() != direct.String() {
		t.Error("registry run differs from direct Table2 call")
	}
}
