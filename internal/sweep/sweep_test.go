package sweep

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/simcache"
)

func tuningSpace() *Space {
	return &Space{
		Base: model.DefaultAlphaConfig(),
		Axes: []Axis{
			Ints("rob", "ROB", 80, 40, 20),
			Ints("issue", "IntIssueWidth", 4, 2),
			Bools("openpage", "DRAM.OpenPage", true, false),
		},
	}
}

func TestSpaceCheck(t *testing.T) {
	if err := tuningSpace().Check(); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}

	bad := []struct {
		name string
		s    *Space
		want string
	}{
		{"no base", &Space{Axes: []Axis{Ints("x", "ROB", 1)}}, "no base config"},
		{"no axes", &Space{Base: model.DefaultAlphaConfig()}, "no axes"},
		{"unknown field", &Space{Base: model.DefaultAlphaConfig(),
			Axes: []Axis{Ints("x", "NoSuchKnob", 1)}}, "no field"},
		{"unknown nested field", &Space{Base: model.DefaultAlphaConfig(),
			Axes: []Axis{Ints("x", "Hier.L2.Nope", 1)}}, "no field"},
		{"duplicate axis", &Space{Base: model.DefaultAlphaConfig(),
			Axes: []Axis{Ints("x", "ROB", 1), Ints("x", "IntQueue", 1)}}, "duplicate"},
		{"empty values", &Space{Base: model.DefaultAlphaConfig(),
			Axes: []Axis{{Name: "x", Field: "ROB"}}}, "no values"},
		{"type mismatch", &Space{Base: model.DefaultAlphaConfig(),
			Axes: []Axis{{Name: "x", Field: "ROB", Values: []any{"eighty"}}}}, "cannot assign"},
		{"func field aliases cache keys", &Space{Base: struct{ Hook func() }{},
			Axes: []Axis{{Name: "x", Field: "Hook", Values: []any{nil}}}}, "fingerprint-opaque"},
		{"non-struct base", &Space{Base: 42,
			Axes: []Axis{Ints("x", "ROB", 1)}}, "must be a struct"},
		// Points a=80 b=40 and a=20 b=40 would both be ROB 40 under
		// one cache key.
		{"two axes on one field", &Space{Base: model.DefaultAlphaConfig(),
			Axes: []Axis{Ints("a", "ROB", 80, 20), Ints("b", "ROB", 40)}}, "overlapping fields"},
		{"axis inside another's field", &Space{Base: model.SimAlphaDDRConfig(),
			Axes: []Axis{{Name: "ddr", Field: "DDR", Values: []any{map[string]any{"TCL": 4}}},
				Ints("tcl", "DDR.TCL", 2, 6)}}, "overlapping fields"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Check()
			if err == nil {
				t.Fatalf("Check accepted invalid space")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSpaceConfigAppliesWithoutMutatingBase(t *testing.T) {
	s := tuningSpace()
	cfgAny, err := s.Config(Point{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgAny.(model.AlphaConfig)
	if cfg.ROB != 20 || cfg.IntIssueWidth != 2 || cfg.DRAM.OpenPage {
		t.Errorf("point not applied: ROB=%d issue=%d openpage=%v",
			cfg.ROB, cfg.IntIssueWidth, cfg.DRAM.OpenPage)
	}
	base := s.Base.(model.AlphaConfig)
	if base.ROB != 80 || base.IntIssueWidth != 4 || !base.DRAM.OpenPage {
		t.Error("Config mutated the base configuration")
	}
	if got := s.Label(Point{2, 1, 1}); got != "rob=20 issue=2 openpage=false" {
		t.Errorf("Label = %q", got)
	}
}

// Two sweep-mutated configs that differ in any exported field must
// never share a cache key — the property the whole engine leans on.
func TestDistinctPointsDistinctCellKeys(t *testing.T) {
	s := tuningSpace()
	pts, err := Grid{}.Enumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string)
	for _, p := range pts {
		cfg, err := s.Config(p)
		if err != nil {
			t.Fatal(err)
		}
		fp := simcache.Fingerprint(cfg)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("points %s and %s fingerprint identically", prev, s.Label(p))
		}
		seen[fp] = s.Label(p)
	}
	if len(seen) != s.Size() {
		t.Errorf("expected %d distinct fingerprints, got %d", s.Size(), len(seen))
	}
}

func TestAssignLosslessConversions(t *testing.T) {
	// JSON-decoded axis values arrive as float64; integral ones must
	// land in int fields, lossy ones must be rejected.
	s := &Space{Base: model.DefaultAlphaConfig(),
		Axes: []Axis{{Name: "rob", Field: "ROB", Values: []any{float64(48)}}}}
	if err := s.Check(); err != nil {
		t.Fatalf("integral float64 rejected: %v", err)
	}
	cfg, err := s.Config(Point{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.(model.AlphaConfig).ROB; got != 48 {
		t.Errorf("ROB = %d, want 48", got)
	}

	s.Axes[0].Values = []any{48.5}
	if err := s.Check(); err == nil {
		t.Error("lossy float64 48.5 accepted for an int field")
	}
	type knobs struct {
		Budget uint64
		Narrow int8
	}
	s2 := &Space{Base: knobs{}, Axes: []Axis{{Name: "b", Field: "Budget", Values: []any{-3}}}}
	if err := s2.Check(); err == nil {
		t.Error("negative value accepted for a uint64 field (would wrap)")
	}
	s2.Axes = []Axis{{Name: "n", Field: "Narrow", Values: []any{1000}}}
	if err := s2.Check(); err == nil {
		t.Error("overflowing value accepted for an int8 field")
	}
}

// TestSpaceCheckMatchesOverride: Check resolves a path by exact field
// name and decodes each value as Override will, so what Check accepts
// Config can apply, and what Override would ignore Check refuses.
func TestSpaceCheckMatchesOverride(t *testing.T) {
	type knobs struct {
		ROB    int
		hidden int
	}
	for name, a := range map[string]Axis{
		"nil value":        {Name: "x", Field: "ROB", Values: []any{80, nil}},
		"case-folded path": Ints("x", "rob", 80),
		"unexported field": Ints("x", "hidden", 1),
		"path through int": Ints("x", "ROB.Depth", 1),
	} {
		if err := (&Space{Base: knobs{hidden: 1}, Axes: []Axis{a}}).Check(); err == nil {
			t.Errorf("%s: Check accepted %+v", name, a)
		}
	}
	if err := (&Space{Base: &knobs{}, Axes: []Axis{Ints("x", "ROB", 1)}}).Check(); err == nil {
		t.Error("Check accepted a pointer base, which Override would decode through")
	}

	// An axis over a whole struct field may take a JSON object. A
	// second axis inside that field is rejected, and even unchecked,
	// Config leaves the first axis's value as it was.
	dram := map[string]any{"CASCycles": 9}
	s := &Space{Base: model.DefaultAlphaConfig(), Axes: []Axis{
		{Name: "dram", Field: "DRAM", Values: []any{dram}},
		Bools("openpage", "DRAM.OpenPage", false),
	}}
	if err := s.Check(); err == nil {
		t.Error("Check accepted an axis inside another axis's field")
	}
	if err := (&Space{Base: s.Base, Axes: s.Axes[:1]}).Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Config(s.Origin()); err != nil {
		t.Fatal(err)
	}
	if len(dram) != 1 {
		t.Errorf("Config wrote into an axis value: %v", dram)
	}
}

func TestGridEnumeration(t *testing.T) {
	s := tuningSpace()
	pts, err := Grid{}.Enumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 12 || s.Size() != 12 {
		t.Fatalf("grid has %d points, want 12", len(pts))
	}
	// Lexicographic, last axis fastest.
	if !pts[0].Equal(Point{0, 0, 0}) || !pts[1].Equal(Point{0, 0, 1}) || !pts[11].Equal(Point{2, 1, 1}) {
		t.Errorf("grid order wrong: %v ... %v", pts[0], pts[11])
	}
}

func TestRandomDeterministicAndDistinct(t *testing.T) {
	s := tuningSpace()
	a, err := (Random{Seed: 7, N: 5}).Enumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := (Random{Seed: 7, N: 5}).Enumerate(s)
	if len(a) != 5 {
		t.Fatalf("sampled %d points, want 5", len(a))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	seen := map[string]bool{}
	for _, p := range a {
		l := s.Label(p)
		if seen[l] {
			t.Errorf("duplicate sampled point %s", l)
		}
		seen[l] = true
	}
	c, _ := (Random{Seed: 8, N: 5}).Enumerate(s)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
	// Oversampling covers the whole space.
	all, err := (Random{Seed: 1, N: 100}).Enumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 12 {
		t.Errorf("oversample returned %d points, want the full 12-point grid", len(all))
	}
}

func TestOneFactorAtATime(t *testing.T) {
	s := tuningSpace()
	pts, err := (OneFactorAtATime{}).Enumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	// baseline + (2 + 1 + 1) alternatives
	if len(pts) != 5 {
		t.Fatalf("ofat has %d points, want 5", len(pts))
	}
	if !pts[0].Equal(Point{0, 0, 0}) {
		t.Errorf("first point %v is not the baseline", pts[0])
	}
	want := []Point{{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for i := range want {
		if !pts[i].Equal(want[i]) {
			t.Errorf("ofat[%d] = %v, want %v", i, pts[i], want[i])
		}
	}

	// Non-origin baseline: alternatives fan around it.
	pts, err = (OneFactorAtATime{Baseline: Point{1, 1, 1}}).Enumerate(s)
	if err != nil {
		t.Fatal(err)
	}
	if !pts[0].Equal(Point{1, 1, 1}) || !pts[1].Equal(Point{0, 1, 1}) {
		t.Errorf("baseline fan wrong: %v, %v", pts[0], pts[1])
	}
}
