package model

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/macrobench"
	"repro/internal/runner"
)

var update = flag.Bool("update", false, "re-bless testdata/kernel_pins.golden")

// pinInsts is the pinned budget: well past the 15k-instruction cells
// the experiment goldens stop at, so steady-state scheduling (full
// windows, overlapping misses, replay traps) is covered.
const pinInsts = 100_000

// pinCell is one pinned run: a machine config on a macrobenchmark.
type pinCell struct {
	label    string
	cfg      any
	workload string
}

// pinCells lists every 21264-family backend on gcc, equake and art,
// plus sim-alpha at the event-timing edges its bounds allow: a queue
// slot that frees the cycle after issue, one that outlasts a DRAM
// miss (so slots free at retirement), a zero-latency D-cache hit (a
// load's consumer can issue in the load's own cycle) and the
// smallest ROB.
func pinCells() []pinCell {
	var cells []pinCell
	workloads := []string{"gcc", "equake", "art"}
	for _, name := range []string{"sim-alpha", "sim-stripped", "sim-initial", "native-ds10l", "sim-alpha-ddr"} {
		d, err := ByName(name)
		if err != nil {
			panic(err)
		}
		for _, w := range workloads {
			cells = append(cells, pinCell{name, d.Config, w})
		}
	}
	edges := []struct {
		label string
		set   func(*AlphaConfig)
	}{
		{"lag0", func(c *AlphaConfig) { c.QueueFreeLag = 0 }},
		{"lag400", func(c *AlphaConfig) { c.QueueFreeLag = 400 }},
		{"l1dhit0", func(c *AlphaConfig) { c.Hier.L1D.HitLatency = 0 }},
		{"rob8", func(c *AlphaConfig) { c.ROB = 2 * c.FetchWidth }},
	}
	for _, e := range edges {
		cfg := DefaultAlphaConfig()
		e.set(&cfg)
		for _, w := range workloads {
			cells = append(cells, pinCell{"sim-alpha/" + e.label, cfg, w})
		}
	}
	return cells
}

// pinLine renders one run as a golden line: the headline numbers in
// the clear, then a digest of everything the run reports (counters
// and CPI stack included), so any moved count fails the pin.
func pinLine(c pinCell, r core.RunResult) string {
	sum := sha256.Sum256([]byte(fingerprint.Of(struct {
		Instructions, Cycles uint64
		Counters             map[string]uint64
		Breakdown            any
	}{r.Instructions, r.Cycles, r.Counters, r.Breakdown})))
	return fmt.Sprintf("%-20s %-7s insts=%d cycles=%d digest=%x\n",
		c.label, c.workload, r.Instructions, r.Cycles, sum[:8])
}

// TestAlphaKernelResultsPinned pins every 21264-family backend's
// results at 100k instructions. The experiment goldens run 15k-cell
// budgets and the full-length check is opt-in (GOLDEN_FULL=1), so
// this is the tier-1 guard on the scheduling kernel past short runs.
// Re-bless a deliberate timing change with
//
//	go test ./internal/model -run TestAlphaKernelResultsPinned -update
func TestAlphaKernelResultsPinned(t *testing.T) {
	cells := pinCells()
	lines, err := runner.Map(0, cells, func(_ int, c pinCell) (string, error) {
		w, ok := macrobench.ByName(c.workload)
		if !ok {
			return "", fmt.Errorf("no workload %q", c.workload)
		}
		m, err := Build(c.cfg)
		if err != nil {
			return "", err
		}
		r, err := m.Run(w.Capped(pinInsts))
		if err != nil {
			return "", fmt.Errorf("%s on %s: %w", c.label, c.workload, err)
		}
		return pinLine(c, r), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(lines, "")
	path := filepath.Join("testdata", "kernel_pins.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to bless): %v", err)
	}
	if got != string(want) {
		t.Errorf("21264 kernel results drifted from testdata/kernel_pins.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
