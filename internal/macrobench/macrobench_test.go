package macrobench

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/model"
)

func TestSuiteShape(t *testing.T) {
	s := Suite()
	want := []string{"gzip", "vpr", "gcc", "parser", "eon", "twolf", "mesa", "art", "equake", "lucas"}
	if len(s) != len(want) {
		t.Fatalf("suite has %d entries, want %d", len(s), len(want))
	}
	for i, w := range s {
		if w.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, w.Name, want[i])
		}
		if w.Category != "macro" {
			t.Errorf("%s category = %s", w.Name, w.Category)
		}
	}
	if _, ok := ByName("art"); !ok {
		t.Error("ByName(art) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted junk")
	}
}

func TestAllRunToCompletion(t *testing.T) {
	for _, w := range Suite() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			c := cpu.New(w.Prog)
			n, err := c.Run(10_000_000)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if !c.Halted() {
				t.Fatalf("%s did not halt", w.Name)
			}
			if n < 50_000 {
				t.Errorf("%s too short: %d instructions", w.Name, n)
			}
			if n > 3_000_000 {
				t.Errorf("%s too long: %d instructions", w.Name, n)
			}
		})
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(Profiles()[0])
	b := Generate(Profiles()[0])
	if len(a.Prog.Code) != len(b.Prog.Code) {
		t.Fatal("generation not deterministic")
	}
	for i := range a.Prog.Code {
		if a.Prog.Code[i] != b.Prog.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestCharacteristicSignatures(t *testing.T) {
	m := model.MustBuild(model.DefaultAlphaConfig())
	get := func(name string) map[string]uint64 {
		w, _ := ByName(name)
		res, err := m.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Counters
		c["insts"] = res.Instructions
		c["cycles"] = res.Cycles
		return c
	}
	mesa := get("mesa")
	twolf := get("twolf")
	art := get("art")
	gcc := get("gcc")
	eon := get("eon")

	// mesa streams beyond the L2; twolf is cache-resident.
	mesaL2PerInst := float64(mesa["l2_misses"]) / float64(mesa["insts"])
	twolfL2PerInst := float64(twolf["l2_misses"]) / float64(twolf["insts"])
	if mesaL2PerInst < 5*twolfL2PerInst {
		t.Errorf("mesa L2 misses/inst %.5f not well above twolf %.5f", mesaL2PerInst, twolfL2PerInst)
	}
	// gcc's code footprint produces instruction-cache misses.
	if gcc["icache_misses"] < 50 {
		t.Errorf("gcc icache misses = %d; code footprint too small", gcc["icache_misses"])
	}
	// eon's virtual dispatch produces indirect-jump activity.
	if eon["jmp_mispredicts"] == 0 {
		t.Error("eon produced no indirect-jump mispredictions")
	}
	// art produces no replay traps on the exact-address simulator...
	if art["replay_traps"] != 0 {
		t.Logf("note: art replay traps on sim-alpha = %d", art["replay_traps"])
	}
	// ...but does on the coarse-granularity native machine.
	nm := model.MustBuild(model.DefaultNativeConfig().Model)
	w, _ := ByName("art")
	res, err := nm.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counter("replay_traps") < 100 {
		t.Errorf("native art replay traps = %d; conflict signature missing", res.Counter("replay_traps"))
	}
}

func TestCodeFootprints(t *testing.T) {
	small, _ := ByName("twolf")
	big, _ := ByName("gcc")
	if len(big.Prog.Code) < 3*len(small.Prog.Code) {
		t.Errorf("gcc code (%d words) not much larger than twolf (%d words)",
			len(big.Prog.Code), len(small.Prog.Code))
	}
}
