package dram

import (
	"testing"
	"testing/quick"
)

func TestOpenPageHitFasterThanMiss(t *testing.T) {
	d := New(DS10LConfig())
	cfg := d.Config()
	first := d.Access(0, false, 1000)
	// Same row, bank now idle again far in the future.
	hit := d.Access(64, false, 1_000_000)
	// Different row, same bank (stride = RowBytes*Banks).
	miss := d.Access(uint64(cfg.RowBytes*cfg.Banks), false, 2_000_000)
	if !(hit < first) {
		t.Errorf("page hit %d not faster than cold access %d", hit, first)
	}
	if !(miss > hit) {
		t.Errorf("page miss %d not slower than hit %d", miss, hit)
	}
	wantHit := cfg.ControllerCycles + (cfg.CASCycles+cfg.TransferCycles)*cfg.ClockRatio
	if hit != wantHit {
		t.Errorf("page hit latency = %d, want %d", hit, wantHit)
	}
	wantMiss := cfg.ControllerCycles + (cfg.PrechargeCycles+cfg.RASCycles+cfg.CASCycles+cfg.TransferCycles)*cfg.ClockRatio
	if miss != wantMiss {
		t.Errorf("page miss latency = %d, want %d", miss, wantMiss)
	}
}

func TestClosedPagePolicyConstantLatency(t *testing.T) {
	cfg := DS10LConfig()
	cfg.OpenPage = false
	d := New(cfg)
	a := d.Access(0, false, 1000)
	b := d.Access(64, false, 1_000_000) // same row: no benefit under closed page
	if a != b {
		t.Errorf("closed-page latencies differ: %d vs %d", a, b)
	}
	if d.Stats.PageHits != 0 {
		t.Errorf("closed-page recorded %d page hits", d.Stats.PageHits)
	}
}

func TestBankConflictQueues(t *testing.T) {
	d := New(DS10LConfig())
	cfg := d.Config()
	// Two back-to-back accesses to different rows of the same bank at
	// the same instant: the second waits for the first.
	sameBankStride := uint64(cfg.RowBytes * cfg.Banks)
	a := d.Access(0, false, 100)
	b := d.Access(sameBankStride, false, 100)
	if b <= a {
		t.Errorf("conflicting access %d not delayed past %d", b, a)
	}
	if d.Stats.BankWaits != 1 {
		t.Errorf("BankWaits = %d, want 1", d.Stats.BankWaits)
	}
}

func TestDifferentBanksDoNotConflict(t *testing.T) {
	d := New(DS10LConfig())
	cfg := d.Config()
	a := d.Access(0, false, 100)
	b := d.Access(uint64(cfg.RowBytes), false, 100) // next row -> next bank
	if b != a {
		t.Errorf("independent banks interfered: %d vs %d", a, b)
	}
	if d.Stats.BankWaits != 0 {
		t.Errorf("BankWaits = %d, want 0", d.Stats.BankWaits)
	}
}

func TestStreamingMostlyPageHits(t *testing.T) {
	d := New(DS10LConfig())
	now := uint64(0)
	for i := 0; i < 256; i++ {
		lat := d.Access(uint64(i*64), false, now)
		now += uint64(lat) + 10
	}
	if d.Stats.PageHits < d.Stats.Accesses*3/4 {
		t.Errorf("streaming page hits = %d of %d", d.Stats.PageHits, d.Stats.Accesses)
	}
}

func TestMinLatency(t *testing.T) {
	d := New(DS10LConfig())
	d.Access(0, false, 0) // open the row
	got := d.Access(0, false, 1_000_000)
	if got != d.MinLatency() {
		t.Errorf("best-case access = %d, MinLatency = %d", got, d.MinLatency())
	}
}

// Property: latency is always at least the page-hit minimum and the
// event counters partition all accesses.
func TestQuickLatencyBounds(t *testing.T) {
	d := New(DS10LConfig())
	now := uint64(0)
	f := func(addr uint64, gap uint16) bool {
		now += uint64(gap)
		lat := d.Access(addr%(1<<28), false, now)
		if lat < d.MinLatency() {
			return false
		}
		return d.Stats.PageHits+d.Stats.PageMisses+d.Stats.PageEmpty == d.Stats.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
