// Package ddr is a cycle-accurate DDR SDRAM memory subsystem: banks
// grouped into ranks on shared-data-bus channels, a command scheduler
// that issues PRECHARGE/ACTIVATE/READ/WRITE with full inter-command
// timing (tRCD, tCL, tRP, tRAS, tRRD, tFAW, tWR, burst transfer), an
// open/closed/adaptive row-buffer policy, and a bounded per-bank
// request queue drained FCFS or FR-FCFS (row hits first, with a
// starvation cap).
//
// It is the high-fidelity counterpart of the flat SDRAM model in
// internal/dram: both implement mem.Memory, and a machine config opts
// into DDR timing by setting its DDR field (see NewOrFlat), so the
// memory system is part of the config's fingerprint like any other
// knob. The flat model stays the default: a zero DDR field means flat
// memory. The memory validate experiment quantifies what the extra
// fidelity buys — where flat-DRAM CPI error comes from and which
// controller knobs flip conclusions on the cheaper tiers.
//
// Every Config field is a plain exported scalar, so each knob is a
// sweep axis (internal/sweep resolves dot-separated field paths by
// reflection and rejects unsettable fields before anything runs).
package ddr

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/mem"
)

// Config describes one DDR memory subsystem. All DRAM timing fields
// are in DRAM cycles; ControllerCycles is in CPU cycles (board logic
// clocked with the processor interface); ClockRatio converts between
// the two domains.
type Config struct {
	Channels int // independent command/data buses
	Ranks    int // ranks per channel (share the channel's data bus)
	Banks    int // banks per rank (independent row buffers)
	RowBytes int // bytes per row ("DRAM page") per bank

	BurstCycles int // DRAM cycles to stream one cache block
	TRCD        int // ACTIVATE to READ/WRITE, same bank
	TCL         int // READ to first data beat (CAS latency; also used for writes)
	TRP         int // PRECHARGE to ACTIVATE, same bank
	TRAS        int // ACTIVATE to PRECHARGE, same bank
	TRRD        int // ACTIVATE to ACTIVATE, same rank, any bank
	TFAW        int // window in which at most four ACTIVATEs may issue per rank
	TWR         int // end of write data to PRECHARGE, same bank

	ControllerCycles int // CPU-cycle overhead, total both ways
	ClockRatio       int // CPU cycles per DRAM cycle

	// RowPolicy selects what happens to the row buffer after an
	// access: "open" leaves the row open, "closed" precharges
	// immediately, "adaptive" keeps a 2-bit saturating counter per
	// bank (row hits push toward open, row conflicts toward closed).
	RowPolicy string
	// Scheduler selects the queue drain order: "fcfs" issues in
	// arrival order; "frfcfs" lets a row-buffer hit bypass queued
	// conflicting requests, each at most StarveLimit times.
	Scheduler string
	// QueueDepth bounds the per-bank request queue; an access arriving
	// at a full queue stalls (counted in Stats.QueueWaits) until the
	// oldest entry completes.
	QueueDepth int
	// StarveLimit caps how many times one queued request may be
	// bypassed by younger row hits under "frfcfs".
	StarveLimit int
}

// Row-buffer policies and scheduler names accepted by Config.
const (
	PolicyOpen     = "open"
	PolicyClosed   = "closed"
	PolicyAdaptive = "adaptive"

	SchedFCFS   = "fcfs"
	SchedFRFCFS = "frfcfs"
)

// DS10LDDR returns the DDR subsystem calibrated to stand in for the
// DS-10L's memory system: one channel, one rank of eight 4 KB-row
// banks, and timing chosen so the best case (row hit, idle bank)
// matches the flat model's calibrated 50 CPU cycles — 2 cycles of
// controller logic plus (tCL 4 + burst 4) memory cycles at one sixth
// of the 466 MHz core clock. Conflicted and queued accesses diverge
// from the flat model; that difference is what the memory experiment
// measures.
func DS10LDDR() Config {
	return Config{
		Channels:         1,
		Ranks:            1,
		Banks:            8,
		RowBytes:         4096,
		BurstCycles:      4,
		TRCD:             4,
		TCL:              4,
		TRP:              2,
		TRAS:             8,
		TRRD:             2,
		TFAW:             10,
		TWR:              3,
		ControllerCycles: 2,
		ClockRatio:       6,
		RowPolicy:        PolicyOpen,
		Scheduler:        SchedFRFCFS,
		QueueDepth:       8,
		StarveLimit:      4,
	}
}

// Check validates the configuration.
func (c Config) Check() error {
	if c.Channels < 1 || c.Channels > 8 || c.Ranks < 1 || c.Ranks > 8 || c.Banks < 1 || c.Banks > 64 {
		return fmt.Errorf("ddr: topology out of range (channels %d of [1,8], ranks %d of [1,8], banks %d of [1,64])",
			c.Channels, c.Ranks, c.Banks)
	}
	if c.RowBytes < 64 || c.RowBytes > 1<<20 || c.RowBytes%64 != 0 {
		return fmt.Errorf("ddr: RowBytes %d must be a multiple of the 64-byte block in [64, 1 MB]", c.RowBytes)
	}
	if c.BurstCycles < 1 || c.BurstCycles > 256 {
		return fmt.Errorf("ddr: BurstCycles %d out of range [1,256]", c.BurstCycles)
	}
	for _, t := range []struct {
		name string
		v    int
	}{
		{"TRCD", c.TRCD}, {"TCL", c.TCL}, {"TRP", c.TRP},
		{"TRAS", c.TRAS}, {"TRRD", c.TRRD}, {"TFAW", c.TFAW}, {"TWR", c.TWR},
	} {
		if t.v < 1 || t.v > 4096 {
			return fmt.Errorf("ddr: %s %d out of range [1,4096]", t.name, t.v)
		}
	}
	if c.TFAW < c.TRRD {
		return fmt.Errorf("ddr: TFAW %d < TRRD %d (four spaced ACTIVATEs already span TRRD)", c.TFAW, c.TRRD)
	}
	if c.ControllerCycles < 0 || c.ControllerCycles > 4096 {
		return fmt.Errorf("ddr: ControllerCycles %d out of range [0,4096]", c.ControllerCycles)
	}
	if c.ClockRatio < 1 || c.ClockRatio > 64 {
		return fmt.Errorf("ddr: ClockRatio %d out of range [1,64]", c.ClockRatio)
	}
	switch c.RowPolicy {
	case PolicyOpen, PolicyClosed, PolicyAdaptive:
	default:
		return fmt.Errorf("ddr: unknown RowPolicy %q (want %q, %q or %q)",
			c.RowPolicy, PolicyOpen, PolicyClosed, PolicyAdaptive)
	}
	switch c.Scheduler {
	case SchedFCFS, SchedFRFCFS:
	default:
		return fmt.Errorf("ddr: unknown Scheduler %q (want %q or %q)", c.Scheduler, SchedFCFS, SchedFRFCFS)
	}
	if c.QueueDepth < 1 || c.QueueDepth > 64 {
		return fmt.Errorf("ddr: QueueDepth %d out of range [1,64]", c.QueueDepth)
	}
	if c.StarveLimit < 1 || c.StarveLimit > 64 {
		return fmt.Errorf("ddr: StarveLimit %d out of range [1,64]", c.StarveLimit)
	}
	return nil
}

// NewOrFlat builds one run's main memory: a fresh DDR controller at
// c, or the flat SDRAM model at flat when c is the zero Config (the
// machine did not opt into DDR timing).
func NewOrFlat(c Config, flat dram.Config) mem.Memory {
	if c == (Config{}) {
		return dram.New(flat)
	}
	return New(c)
}
