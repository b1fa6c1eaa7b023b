package ddr

import (
	"sort"
	"testing"

	"repro/internal/dram"
)

// xorshift is the deterministic address generator shared by the
// traffic tests and the fuzz harness.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// drive pushes n deterministic accesses through the controller with a
// clock that advances a fraction of each latency, so requests overlap
// and the queues and schedulers actually work. Returns the latencies.
func drive(c *Controller, n int, seed uint64) []int {
	x := xorshift(seed)
	var now uint64
	lats := make([]int, n)
	for i := range lats {
		addr := (x.next() % (1 << 26)) &^ 63
		write := x.next()%4 == 0
		lat := c.Access(addr, write, now)
		lats[i] = lat
		// Advance by a quarter of the latency: enough concurrency to
		// queue requests, monotone enough for the horizon pruning.
		now += uint64(lat / 4)
	}
	return lats
}

// collectTrace runs traffic with the trace hook installed and returns
// every command after a full drain.
func collectTrace(c *Controller, n int, seed uint64) []Cmd {
	var cmds []Cmd
	c.Trace = func(cmd Cmd) { cmds = append(cmds, cmd) }
	drive(c, n, seed)
	c.Flush()
	return cmds
}

// checkTrace asserts the DRAM protocol invariants over a command
// trace: per-bank tRC/tRP/tRCD/tRAS spacing, per-rank tRRD and tFAW,
// and exclusive data-bus bursts per channel.
func checkTrace(t testing.TB, cfg Config, cmds []Cmd) {
	t.Helper()
	ratio := uint64(cfg.ClockRatio)
	trcd, tcl := uint64(cfg.TRCD)*ratio, uint64(cfg.TCL)*ratio
	trp, tras := uint64(cfg.TRP)*ratio, uint64(cfg.TRAS)*ratio
	trrd, tfaw := uint64(cfg.TRRD)*ratio, uint64(cfg.TFAW)*ratio
	trc := tras + trp
	tburst := uint64(cfg.BurstCycles) * ratio

	type key struct{ ch, rk, bk int }
	byBank := map[key][]Cmd{}
	byRank := map[key][]uint64{} // ACT times, bk ignored
	byChan := map[int][]ival{}   // burst windows
	for _, cmd := range cmds {
		k := key{cmd.Channel, cmd.Rank, cmd.Bank}
		byBank[k] = append(byBank[k], cmd)
		switch cmd.Kind {
		case CmdACT:
			rk := key{cmd.Channel, cmd.Rank, 0}
			byRank[rk] = append(byRank[rk], cmd.At)
		case CmdRD, CmdWR:
			byChan[cmd.Channel] = append(byChan[cmd.Channel],
				ival{start: cmd.At + tcl, end: cmd.At + tcl + tburst})
		}
	}

	for k, seq := range byBank {
		sort.SliceStable(seq, func(i, j int) bool { return seq[i].At < seq[j].At })
		var lastAct, lastPre uint64
		haveAct, havePre := false, false
		for _, cmd := range seq {
			switch cmd.Kind {
			case CmdACT:
				if haveAct && cmd.At-lastAct < trc {
					t.Fatalf("bank %v: ACT at %d only %d after ACT at %d (tRC %d)",
						k, cmd.At, cmd.At-lastAct, lastAct, trc)
				}
				if havePre && cmd.At-lastPre < trp {
					t.Fatalf("bank %v: ACT at %d only %d after PRE at %d (tRP %d)",
						k, cmd.At, cmd.At-lastPre, lastPre, trp)
				}
				lastAct, haveAct = cmd.At, true
			case CmdPRE:
				if haveAct && cmd.At-lastAct < tras {
					t.Fatalf("bank %v: PRE at %d only %d after ACT at %d (tRAS %d)",
						k, cmd.At, cmd.At-lastAct, lastAct, tras)
				}
				lastPre, havePre = cmd.At, true
			case CmdRD, CmdWR:
				if haveAct && cmd.At >= lastAct && cmd.At-lastAct < trcd && cmd.At != lastAct+trcd {
					// A column command belonging to the open row issued
					// before tRCD elapsed.
					t.Fatalf("bank %v: %s at %d only %d after ACT at %d (tRCD %d)",
						k, cmd.Kind, cmd.At, cmd.At-lastAct, lastAct, trcd)
				}
			}
		}
	}

	for k, acts := range byRank {
		sort.Slice(acts, func(i, j int) bool { return acts[i] < acts[j] })
		for i := 1; i < len(acts); i++ {
			if acts[i]-acts[i-1] < trrd {
				t.Fatalf("rank %v: ACTs at %d and %d violate tRRD %d", k, acts[i-1], acts[i], trrd)
			}
		}
		for i := 4; i < len(acts); i++ {
			if acts[i]-acts[i-4] < tfaw {
				t.Fatalf("rank %v: five ACTs within %d cycles violate tFAW %d",
					k, acts[i]-acts[i-4], tfaw)
			}
		}
	}

	for ch, bursts := range byChan {
		sort.Slice(bursts, func(i, j int) bool { return bursts[i].start < bursts[j].start })
		for i := 1; i < len(bursts); i++ {
			if bursts[i].start < bursts[i-1].end {
				t.Fatalf("channel %d: data bursts [%d,%d) and [%d,%d) overlap",
					ch, bursts[i-1].start, bursts[i-1].end, bursts[i].start, bursts[i].end)
			}
		}
	}
}

func TestMinLatencyMatchesFlatDS10L(t *testing.T) {
	got := New(DS10LDDR()).MinLatency()
	want := dram.New(dram.DS10LConfig()).MinLatency()
	if got != want {
		t.Fatalf("DS10LDDR min latency %d, flat DS-10L %d: calibration broken", got, want)
	}
}

func TestSingleAccessLatencies(t *testing.T) {
	cfg := DS10LDDR()
	c := New(cfg)
	// Cold bank: ACT + CAS + burst.
	empty := cfg.ControllerCycles + (cfg.TRCD+cfg.TCL+cfg.BurstCycles)*cfg.ClockRatio
	if got := c.Access(0, false, 0); got != empty {
		t.Fatalf("cold access latency %d, want %d", got, empty)
	}
	// Same row after completion: pure hit.
	if got := c.Access(64, false, 10_000); got != c.MinLatency() {
		t.Fatalf("row-hit latency %d, want %d", got, c.MinLatency())
	}
	// Different row, same bank: PRE + ACT + CAS.
	confl := uint64(cfg.RowBytes * cfg.Channels * cfg.Ranks * cfg.Banks)
	miss := cfg.ControllerCycles + (cfg.TRP+cfg.TRCD+cfg.TCL+cfg.BurstCycles)*cfg.ClockRatio
	if got := c.Access(confl, false, 20_000); got != miss {
		t.Fatalf("row-conflict latency %d, want %d", got, miss)
	}
	st := c.MemStats()
	if st.RowEmpty != 1 || st.RowHits != 1 || st.RowMisses != 1 {
		t.Fatalf("classification = %+v, want one of each", st)
	}
}

// TestDependentNeverFasterThanTRCDTCL is the timing floor invariant:
// a dependent (serialized) access that does not hit the row buffer
// can never complete faster than tRCD+tCL+burst, and nothing ever
// beats MinLatency.
func TestDependentNeverFasterThanTRCDTCL(t *testing.T) {
	for _, policy := range []string{PolicyOpen, PolicyClosed, PolicyAdaptive} {
		for _, sched := range []string{SchedFCFS, SchedFRFCFS} {
			cfg := DS10LDDR()
			cfg.RowPolicy, cfg.Scheduler = policy, sched
			c := New(cfg)
			floor := cfg.ControllerCycles + (cfg.TRCD+cfg.TCL+cfg.BurstCycles)*cfg.ClockRatio
			x := xorshift(42)
			var now uint64
			for i := 0; i < 5000; i++ {
				hitsBefore := c.MemStats().RowHits
				lat := c.Access((x.next()%(1<<24))&^63, x.next()%8 == 0, now)
				if lat < c.MinLatency() {
					t.Fatalf("%s/%s: latency %d below MinLatency %d", policy, sched, lat, c.MinLatency())
				}
				if c.MemStats().RowHits == hitsBefore && lat < floor {
					t.Fatalf("%s/%s: non-hit latency %d below tRCD+tCL floor %d", policy, sched, lat, floor)
				}
				now += uint64(lat) // fully dependent: next access waits
			}
		}
	}
}

// TestCommandInvariants drives overlapping traffic through every
// policy/scheduler pairing and checks the executed command trace
// against the DRAM protocol windows.
func TestCommandInvariants(t *testing.T) {
	for _, policy := range []string{PolicyOpen, PolicyClosed, PolicyAdaptive} {
		for _, sched := range []string{SchedFCFS, SchedFRFCFS} {
			cfg := DS10LDDR()
			cfg.RowPolicy, cfg.Scheduler = policy, sched
			cfg.Channels, cfg.Ranks = 2, 2
			cfg.QueueDepth = 4
			c := New(cfg)
			cmds := collectTrace(c, 4000, 7)
			if len(cmds) == 0 {
				t.Fatalf("%s/%s: empty command trace", policy, sched)
			}
			checkTrace(t, cfg, cmds)
		}
	}
}

// TestFRFCFSStarvationCap builds a queue holding a row conflict, then
// floods the bank with row hits: the conflict must be bypassed
// exactly StarveLimit times and not once more.
func TestFRFCFSStarvationCap(t *testing.T) {
	cfg := DS10LDDR()
	cfg.Scheduler = SchedFRFCFS
	cfg.QueueDepth = 32
	cfg.StarveLimit = 3
	c := New(cfg)

	rowStride := uint64(cfg.RowBytes * cfg.Channels * cfg.Ranks * cfg.Banks)
	// Open row 0 and stack hits so the queue reaches into the future.
	for i := 0; i < 4; i++ {
		c.Access(uint64(i)*64, false, 0)
	}
	// One row conflict, queued behind them.
	c.Access(rowStride, false, 0)
	// Flood with more hits on row 0 at the same arrival time.
	for i := 0; i < 16; i++ {
		c.Access(uint64(4+i)*64, false, 0)
	}
	if c.maxStarve != cfg.StarveLimit {
		t.Fatalf("conflict bypassed %d times, want exactly StarveLimit %d", c.maxStarve, cfg.StarveLimit)
	}
	st := c.MemStats()
	if st.RowHits == 0 || st.RowMisses == 0 {
		t.Fatalf("expected both hits and a conflict, got %+v", st)
	}
}

// TestFCFSNeverBypasses pins the degenerate scheduler: under FCFS the
// starve counter never moves.
func TestFCFSNeverBypasses(t *testing.T) {
	cfg := DS10LDDR()
	cfg.Scheduler = SchedFCFS
	c := New(cfg)
	drive(c, 3000, 99)
	if c.maxStarve != 0 {
		t.Fatalf("FCFS bypassed a request %d times", c.maxStarve)
	}
}

func TestQueueBound(t *testing.T) {
	cfg := DS10LDDR()
	cfg.QueueDepth = 2
	c := New(cfg)
	// Hammer one bank at a stalled clock: the queue must never exceed
	// its depth and the overflow must be billed as queue waits.
	for i := 0; i < 32; i++ {
		c.Access(uint64(i)*64, false, 0)
		for j := range c.banks {
			if n := len(c.banks[j].pending); n > cfg.QueueDepth {
				t.Fatalf("bank %d queue depth %d exceeds bound %d", j, n, cfg.QueueDepth)
			}
		}
	}
	st := c.MemStats()
	if st.QueueWaits == 0 {
		t.Fatalf("expected queue waits at depth %d under a stalled clock, got %+v", cfg.QueueDepth, st)
	}
	if st.QueueOccupancy == 0 {
		t.Fatalf("expected nonzero queue occupancy, got %+v", st)
	}
}

func TestClassificationTotals(t *testing.T) {
	c := New(DS10LDDR())
	drive(c, 2000, 5)
	st := c.MemStats()
	if st.RowHits+st.RowMisses+st.RowEmpty != st.Accesses {
		t.Fatalf("classification does not partition accesses: %+v", st)
	}
	if st.Accesses != 2000 {
		t.Fatalf("accesses %d, want 2000", st.Accesses)
	}
}

func TestAdaptivePolicyTracksTraffic(t *testing.T) {
	// Row-thrashing traffic: alternate two rows of one bank. Closed
	// and adaptive should both beat open (which pays PRE on every
	// access once the counter drops).
	thrash := func(policy string) uint64 {
		cfg := DS10LDDR()
		cfg.RowPolicy = policy
		c := New(cfg)
		rowStride := uint64(cfg.RowBytes * cfg.Channels * cfg.Ranks * cfg.Banks)
		var now, total uint64
		for i := 0; i < 500; i++ {
			lat := c.Access(uint64(i%2)*rowStride, false, now)
			total += uint64(lat)
			now += uint64(lat)
		}
		return total
	}
	open, closed, adaptive := thrash(PolicyOpen), thrash(PolicyClosed), thrash(PolicyAdaptive)
	if closed >= open {
		t.Fatalf("closed policy (%d cycles) should beat open (%d) on row-thrashing traffic", closed, open)
	}
	if adaptive >= open {
		t.Fatalf("adaptive policy (%d cycles) should converge to closed and beat open (%d)", adaptive, open)
	}

	// Streaming traffic: sequential blocks in one row. Open and
	// adaptive should both beat closed.
	stream := func(policy string) uint64 {
		cfg := DS10LDDR()
		cfg.RowPolicy = policy
		c := New(cfg)
		var now, total uint64
		for i := 0; i < 500; i++ {
			lat := c.Access(uint64(i%32)*64, false, now)
			total += uint64(lat)
			now += uint64(lat)
		}
		return total
	}
	sOpen, sClosed, sAdaptive := stream(PolicyOpen), stream(PolicyClosed), stream(PolicyAdaptive)
	if sOpen >= sClosed {
		t.Fatalf("open policy (%d cycles) should beat closed (%d) on streaming traffic", sOpen, sClosed)
	}
	if sAdaptive >= sClosed {
		t.Fatalf("adaptive policy (%d cycles) should stay open and beat closed (%d)", sAdaptive, sClosed)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DS10LDDR()
	a, b := New(cfg), New(cfg)
	la, lb := drive(a, 3000, 11), drive(b, 3000, 11)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("latency %d diverges: %d vs %d", i, la[i], lb[i])
		}
	}
	if a.MemStats() != b.MemStats() {
		t.Fatalf("stats diverge: %+v vs %+v", a.MemStats(), b.MemStats())
	}
}

func TestLocateCoversTopology(t *testing.T) {
	cfg := DS10LDDR()
	cfg.Channels, cfg.Ranks, cfg.Banks = 2, 2, 4
	c := New(cfg)
	// Adjacent blocks alternate channels.
	ch0, _, _, _ := c.locate(0)
	ch1, _, _, _ := c.locate(64)
	if ch0 == ch1 {
		t.Fatalf("adjacent blocks share channel %d", ch0)
	}
	// Every bank is reachable.
	seen := map[[3]int]bool{}
	for addr := uint64(0); addr < 1<<22; addr += 64 {
		ch, rk, bk, _ := c.locate(addr)
		seen[[3]int{ch, rk, bk}] = true
	}
	if len(seen) != cfg.Channels*cfg.Ranks*cfg.Banks {
		t.Fatalf("reached %d of %d banks", len(seen), cfg.Channels*cfg.Ranks*cfg.Banks)
	}
}

func TestCheckRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Banks = 65 },
		func(c *Config) { c.RowBytes = 100 },
		func(c *Config) { c.TCL = 0 },
		func(c *Config) { c.TFAW = c.TRRD - 1 },
		func(c *Config) { c.ClockRatio = 0 },
		func(c *Config) { c.RowPolicy = "lru" },
		func(c *Config) { c.Scheduler = "random" },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.StarveLimit = 0 },
	}
	for i, mut := range bad {
		cfg := DS10LDDR()
		mut(&cfg)
		if err := cfg.Check(); err == nil {
			t.Fatalf("mutation %d: Check accepted invalid config %+v", i, cfg)
		}
	}
	if err := DS10LDDR().Check(); err != nil {
		t.Fatalf("DS10LDDR rejected: %v", err)
	}
}
