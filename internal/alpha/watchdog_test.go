package alpha

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/macrobench"
)

// bsrFirstWorkload starts with a call whose taken branch the cold
// line predictor misses, so fetch stays blocked for the redirect after
// the call is delivered from the cold I-cache.
func bsrFirstWorkload() core.Workload {
	b := asm.NewBuilder("bsr-first")
	b.Label("main")
	b.Br(isa.OpBsr, isa.T0, "far")
	for i := 0; i < 8; i++ {
		b.OpI(isa.OpAddq, isa.T1, 1, isa.T1)
	}
	b.Label("far")
	b.OpI(isa.OpAddq, isa.T2, 1, isa.T2)
	b.Halt()
	return core.Workload{Name: "bsr-first", Prog: b.MustAssemble()}
}

// TestDeadlockWatchdog pins the deadlock watchdog. With the rename
// stall threshold above the register file, every renaming map stalls
// and re-arms, so nothing ever maps or retires: the run must fail
// 2^20 cycles after its last progress, on the same cycle and with the
// same dump of the window's head, having counted every rename stall
// and charged every cycle (916 to the I-cache miss that delivers the
// head, the rest to the front end). On bsr-first, fetch stays blocked
// a cycle past the head's delivery. Check rejects the threshold, so
// the kernel is built directly.
func TestDeadlockWatchdog(t *testing.T) {
	gcc, ok := macrobench.ByName("gcc")
	if !ok {
		t.Fatal("no gcc workload")
	}
	const head = "alpha: pipeline deadlock at cycle 1048577 (retired 0): "
	for _, c := range []struct {
		w    core.Workload
		want string
	}{
		{gcc.Capped(1000), head +
			"count=80 intQ=0 fpQ=0 intInFlight=0 fpInFlight=0 issueBlk=0 mapBlk=1048577 fetchBlk=936 waitBranch=0\n" +
			"  [0] ldah r10, 256(r31) inum=1 mapped=false issued=false resolved=false doneAt=0 availAt=917\n" +
			"  [1] lda r10, 0(r10) inum=2 mapped=false issued=false resolved=false doneAt=0 availAt=917\n" +
			"  [2] addq r10, r31, r9 inum=3 mapped=false issued=false resolved=false doneAt=0 availAt=917\n" +
			"  [3] ldah r13, 3(r31) inum=4 mapped=false issued=false resolved=false doneAt=0 availAt=917\n" +
			"  [4] lda r11, 0(r31) inum=5 mapped=false issued=false resolved=false doneAt=0 availAt=918\n" +
			"  [5] ldah r14, 259(r31) inum=6 mapped=false issued=false resolved=false doneAt=0 availAt=918\n"},
		{bsrFirstWorkload(), head +
			"count=3 intQ=0 fpQ=0 intInFlight=0 fpInFlight=0 issueBlk=0 mapBlk=1048577 fetchBlk=919 waitBranch=0\n" +
			"  [0] bsr r1, +8 inum=1 mapped=false issued=false resolved=false doneAt=0 availAt=917\n" +
			"  [1] addq r3, #1, r3 inum=2 mapped=false issued=false resolved=false doneAt=0 availAt=919\n" +
			"  [2] halt inum=3 mapped=false issued=false resolved=false doneAt=0 availAt=919\n"},
	} {
		cfg := DefaultConfig()
		cfg.MapStallFree = cfg.RenameRegs + 1
		cycles, _, col, err := newSim(cfg, nil).Time(c.w.Source(), nil)
		if err == nil || err.Error() != c.want {
			t.Fatalf("%s: watchdog error:\n got %v\nwant %s", c.w.Name, err, c.want)
		}
		if got := col.Get(events.MapStalls); got != 349_220 {
			t.Errorf("%s: map stalls = %d, want 349220", c.w.Name, got)
		}
		var stack events.Stack
		stack[events.CompICache] = 916
		stack[events.CompFrontend] = 1_047_661
		if got := col.Finish(cycles); got != stack {
			t.Errorf("%s: CPI stack = %v, want %v", c.w.Name, got, stack)
		}
	}
}
