package inorder

import (
	"testing"

	"repro/internal/alpha"
	"repro/internal/microbench"
)

func TestBasicBounds(t *testing.T) {
	m := DefaultConfig()
	for _, name := range []string{"E-I", "E-D1", "C-Ca"} {
		w, _ := microbench.ByName(name)
		res, err := m.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if ipc := res.IPC(); ipc <= 0 || ipc > 1.0 {
			t.Errorf("%s: in-order IPC %.2f outside (0, 1]", name, ipc)
		}
	}
}

func TestAlwaysBelowOutOfOrder(t *testing.T) {
	io := DefaultConfig()
	ooo := alpha.DefaultConfig()
	for _, name := range []string{"E-I", "E-D6", "C-S2", "M-I"} {
		w, _ := microbench.ByName(name)
		ir, err := io.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		or, err := ooo.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if ir.IPC() >= or.IPC() {
			t.Errorf("%s: in-order %.2f not below out-of-order %.2f",
				name, ir.IPC(), or.IPC())
		}
	}
}

func TestLatencyExposure(t *testing.T) {
	// A dependent multiply chain must run near 1/7 IPC even in order;
	// independent multiplies on a single-issue machine run near 1.
	m := DefaultConfig()
	dep, _ := microbench.ByName("E-DM1")
	res, err := m.Run(dep)
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res.IPC(); ipc > 0.2 {
		t.Errorf("dependent multiply IPC %.3f; latency not exposed", ipc)
	}
	ind, _ := microbench.ByName("E-I")
	res, err = m.Run(ind)
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res.IPC(); ipc < 0.7 {
		t.Errorf("independent adds IPC %.3f; single issue should approach 1", ipc)
	}
}

func TestBlockingCacheHurtsMemory(t *testing.T) {
	m := DefaultConfig()
	ooo := alpha.DefaultConfig()
	w, _ := microbench.ByName("M-I")
	ir, err := m.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	or, err := ooo.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	// Independent resident loads: the OOO machine issues two per
	// cycle, the in-order one at most one instruction per cycle.
	if ir.IPC() > or.IPC()/1.5 {
		t.Errorf("in-order M-I %.2f too close to out-of-order %.2f", ir.IPC(), or.IPC())
	}
}

func TestDeterminism(t *testing.T) {
	m := DefaultConfig()
	w, _ := microbench.ByName("C-S1")
	a, _ := m.Run(w)
	b, _ := m.Run(w)
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}
