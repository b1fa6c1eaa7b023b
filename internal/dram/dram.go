// Package dram models SDRAM access timing in the style of the
// simulator of Cuppu et al. that sim-alpha used: banked DRAM with
// row-activation (RAS), column-access (CAS) and precharge timing, an
// open-page or closed-page controller policy, a clock ratio between
// the CPU and the memory array, and memory-controller overhead.
//
// Section 4.2 of the paper calibrates exactly these parameters
// against the native machine (settling on an open-page policy with
// 2-cycle RAS, 4-cycle CAS, 2-cycle precharge and 2 cycles of
// controller latency); the MemoryCalibration experiment in
// internal/validate reruns that sweep.
package dram

import (
	"repro/internal/bounds"
	"repro/internal/mem"
)

// Config describes one SDRAM subsystem. All latencies are in DRAM
// cycles except ControllerCycles, which is in CPU cycles (it is board
// logic clocked with the processor interface).
type Config struct {
	Banks            int  // independent banks (power of two)
	RowBytes         int  // bytes per row ("DRAM page") per bank
	RASCycles        int  // row activate
	CASCycles        int  // column access
	PrechargeCycles  int  // row precharge
	TransferCycles   int  // cycles to stream one cache block
	ControllerCycles int  // CPU-cycle overhead, total both ways
	ClockRatio       int  // CPU cycles per DRAM cycle
	OpenPage         bool // keep rows open between accesses
	// PipelinedTransfer models a tuned controller that overlaps the
	// data transfer of one access with the activation of the next in
	// the same bank. Single dependent accesses see no latency change;
	// concurrent misses see roughly twice the sustained bandwidth.
	// The DS-10L's C/D-chip controller behaves this way; simulators
	// that charge the bank for the whole transfer do not.
	PipelinedTransfer bool
}

// Check bounds every field.
func (c Config) Check() error {
	return bounds.Check("dram",
		bounds.Int{Name: "Banks", V: c.Banks, Lo: 1, Hi: 64},
		bounds.Int{Name: "RowBytes", V: c.RowBytes, Lo: 64, Hi: 1 << 20},
		bounds.Int{Name: "RASCycles", V: c.RASCycles, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "CASCycles", V: c.CASCycles, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "PrechargeCycles", V: c.PrechargeCycles, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "TransferCycles", V: c.TransferCycles, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "ControllerCycles", V: c.ControllerCycles, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "ClockRatio", V: c.ClockRatio, Lo: 1, Hi: 64},
	)
}

// DS10LConfig returns the calibrated configuration from the paper:
// open page, RAS 2, CAS 4, precharge 2, 2 cycles of controller
// latency, with the memory array at roughly one sixth of the
// processor clock (466 MHz core, 75 MHz memory bus).
func DS10LConfig() Config {
	return Config{
		Banks:            8,
		RowBytes:         4096,
		RASCycles:        2,
		CASCycles:        4,
		PrechargeCycles:  2,
		TransferCycles:   4,
		ControllerCycles: 2,
		ClockRatio:       6,
		OpenPage:         true,
	}
}

// Stats counts DRAM events for reporting and tests.
type Stats struct {
	Accesses   uint64
	PageHits   uint64 // open-page hit: CAS only
	PageMisses uint64 // wrong row open: precharge + RAS + CAS
	PageEmpty  uint64 // bank closed: RAS + CAS
	BankWaits  uint64 // access stalled behind a busy bank
}

// DRAM is one SDRAM subsystem with per-bank open-row state. The zero
// value is unusable; use New.
type DRAM struct {
	cfg     Config
	openRow []int64  // open row per bank, -1 when closed
	busyAt  []uint64 // CPU cycle at which each bank frees
	Stats   Stats
}

// New returns a DRAM with all banks closed.
func New(cfg Config) *DRAM {
	d := &DRAM{cfg: cfg, openRow: make([]int64, cfg.Banks), busyAt: make([]uint64, cfg.Banks)}
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	return d
}

// Config returns the configuration the DRAM was built with.
func (d *DRAM) Config() Config { return d.cfg }

func (d *DRAM) locate(paddr uint64) (bank int, row int64) {
	r := paddr / uint64(d.cfg.RowBytes)
	bank = int(r % uint64(d.cfg.Banks))
	row = int64(r / uint64(d.cfg.Banks))
	return bank, row
}

// Access performs one block read or write beginning at CPU cycle now
// and returns its total latency in CPU cycles, including controller
// overhead, any wait for a busy bank, and the block transfer. The
// flat model prices reads and writes identically, so the write flag
// only exists to satisfy the backend interface (the DDR controller
// uses it for write-recovery timing).
func (d *DRAM) Access(paddr uint64, write bool, now uint64) int {
	_ = write
	d.Stats.Accesses++
	bank, row := d.locate(paddr)

	lat := d.cfg.ControllerCycles // CPU cycles
	start := now + uint64(d.cfg.ControllerCycles/2)
	if d.busyAt[bank] > start {
		d.Stats.BankWaits++
		lat += int(d.busyAt[bank] - start)
		start = d.busyAt[bank]
	}

	var dramCycles int
	switch {
	case !d.cfg.OpenPage:
		// Closed-page: the row was precharged right after the last
		// access, so every access pays activate + column.
		dramCycles = d.cfg.RASCycles + d.cfg.CASCycles
		d.Stats.PageEmpty++
	case d.openRow[bank] == row:
		dramCycles = d.cfg.CASCycles
		d.Stats.PageHits++
	case d.openRow[bank] < 0:
		dramCycles = d.cfg.RASCycles + d.cfg.CASCycles
		d.Stats.PageEmpty++
	default:
		dramCycles = d.cfg.PrechargeCycles + d.cfg.RASCycles + d.cfg.CASCycles
		d.Stats.PageMisses++
	}
	dramCycles += d.cfg.TransferCycles

	if d.cfg.OpenPage {
		d.openRow[bank] = row
	} else {
		d.openRow[bank] = -1
	}

	lat += dramCycles * d.cfg.ClockRatio
	busy := dramCycles
	if d.cfg.PipelinedTransfer {
		busy -= d.cfg.TransferCycles
		if busy < 1 {
			busy = 1
		}
	}
	d.busyAt[bank] = start + uint64(busy*d.cfg.ClockRatio)
	return lat
}

// MinLatency returns the best-case (page hit, idle bank) access
// latency in CPU cycles, used by tests and documentation tables.
func (d *DRAM) MinLatency() int {
	c := d.cfg.CASCycles
	if !d.cfg.OpenPage {
		c = d.cfg.RASCycles + d.cfg.CASCycles
	}
	return d.cfg.ControllerCycles + (c+d.cfg.TransferCycles)*d.cfg.ClockRatio
}

// MemStats maps the flat model's page accounting onto the
// backend-neutral counter set: SDRAM pages are DDR rows, and a bank
// wait is a bank conflict. The flat model has no request queue, so
// the queue fields stay zero.
func (d *DRAM) MemStats() mem.Stats {
	return mem.Stats{
		Accesses:      d.Stats.Accesses,
		RowHits:       d.Stats.PageHits,
		RowMisses:     d.Stats.PageMisses,
		RowEmpty:      d.Stats.PageEmpty,
		BankConflicts: d.Stats.BankWaits,
	}
}
