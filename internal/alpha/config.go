// Package alpha implements the 21264 pipeline timing model that the
// paper validates (sim-alpha), including every low-level feature the
// paper ablates and every modeling bug it catalogues in sim-initial.
// One Config describes a whole machine; the named constructors build
// the paper's four simulator configurations plus the native-machine
// stand-in.
//
// The model is trace-driven (see DESIGN.md): it consumes the dynamic
// instruction stream from the functional simulator and charges
// cycles. Wrong-path work appears as front-end bubbles; replay traps
// re-dispatch in-flight work rather than refetching it.
package alpha

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/cache"
	"repro/internal/ddr"
	"repro/internal/dram"
	"repro/internal/predict"
	"repro/internal/vm"
)

// Features are the performance-enhancing mechanisms and the three
// performance constraints of the 21264 that Tables 4 and 5 toggle.
// The seventh mechanism, the victim buffer, is sized by
// Hier.VictimEntries rather than switched here.
type Features struct {
	JumpAdder   bool // addr: slot-stage adder overrides the line predictor early
	EarlyRetire bool // eret: unops removed in the map stage
	LoadUseSpec bool // luse: consumers issue speculatively assuming loads hit
	IPrefetch   bool // pref: I-cache prefetches up to 4 lines on a miss
	SpecUpdate  bool // spec: speculative update of line predictor, global history, RAS
	StoreWait   bool // stwt: the store-wait predictor

	MapStall     bool // maps: 3-cycle stall when free rename registers < 8
	SlotRestrict bool // slot: static subcluster slotting restricts issue
	MboxTraps    bool // trap: pipeline flush on MAF conflicts
}

// AllFeatures returns the validated 21264 feature set.
func AllFeatures() Features {
	return Features{
		JumpAdder: true, EarlyRetire: true, LoadUseSpec: true,
		IPrefetch: true, SpecUpdate: true, StoreWait: true,
		MapStall: true, SlotRestrict: true, MboxTraps: true,
	}
}

// Stripped returns the sim-stripped feature set: the level of detail
// "typically seen in simulators in the architecture community" — no
// low-level performance features and no clock-rate constraints.
func Stripped() Features { return Features{} }

// Feature names in the order Tables 4 and 5 report them.
var FeatureNames = []string{
	"addr", "eret", "luse", "pref", "spec", "stwt", "vbuf",
	"maps", "slot", "trap",
}

// Without returns a copy of f with the named feature disabled. The
// victim buffer ("vbuf") is a hierarchy structure, not a flag, so it
// leaves f unchanged; Config.WithoutFeature removes it.
func (f Features) Without(name string) Features {
	switch name {
	case "addr":
		f.JumpAdder = false
	case "eret":
		f.EarlyRetire = false
	case "luse":
		f.LoadUseSpec = false
	case "pref":
		f.IPrefetch = false
	case "spec":
		f.SpecUpdate = false
	case "stwt":
		f.StoreWait = false
	case "vbuf":
	case "maps":
		f.MapStall = false
	case "slot":
		f.SlotRestrict = false
	case "trap":
		f.MboxTraps = false
	default:
		panic("alpha: unknown feature " + name)
	}
	return f
}

// Bugs are the modeling, specification and abstraction errors the
// paper discovered in sim-initial (Section 3.4). Each is a switch so
// the error-reduction story can be replayed bug by bug.
type Bugs struct {
	// LateBranchRecovery: no slot-stage adder interaction; every line
	// mispredict waits for execute and takes a full rollback.
	LateBranchRecovery bool
	// ExtraWayPredCycle: an extra cycle charged to access the way
	// predictor (found with eon).
	ExtraWayPredCycle bool
	// NoSpecUpdate: predictors updated only at retire.
	NoSpecUpdate bool
	// OctawordSquashPenalty: one-cycle penalty clearing the fetch
	// slots after a taken branch within the same octaword.
	OctawordSquashPenalty bool
	// CheapJmpFlush: undercharging mispredicted indirect jumps.
	CheapJmpFlush bool
	// UnopsConsumeIssue: unops proceed to the issue queues and retire
	// stage, consuming real issue slots.
	UnopsConsumeIssue bool
	// WrongFUMix: two multipliers and two adders instead of the
	// 21264's one multiplier-capable pipe and three adders.
	WrongFUMix bool
	// AggressiveScheduler: optimal cross-cluster assignment instead
	// of the 21264's static slotting-based rule (E-Dn too fast).
	AggressiveScheduler bool
	// CoarseTrapCompare: load-order trap detection masks low address
	// bits, producing spurious replay traps (found with M-D).
	CoarseTrapCompare bool
	// ExtraRegreadCycle: an extra register-read cycle charged on
	// loads that miss in the L1 (found with M-L2).
	ExtraRegreadCycle bool
	// CheapLoadUseRecovery: one cycle too few charged for load-use
	// mis-speculation recovery (found with M-D).
	CheapLoadUseRecovery bool
}

// InitialBugs returns the full sim-initial bug catalogue.
func InitialBugs() Bugs {
	return Bugs{
		LateBranchRecovery:    true,
		ExtraWayPredCycle:     true,
		NoSpecUpdate:          true,
		OctawordSquashPenalty: true,
		CheapJmpFlush:         true,
		UnopsConsumeIssue:     true,
		WrongFUMix:            true,
		AggressiveScheduler:   true,
		CoarseTrapCompare:     true,
		ExtraRegreadCycle:     true,
		CheapLoadUseRecovery:  true,
	}
}

// NativeExtras are the board- and OS-level behaviors of the real
// DS-10L that sim-alpha does not model (Sections 4.1 and 5.1) and
// that no other config field expresses. The reference machine enables
// them; no simulator does. Its other native behaviors live in the
// fields that implement them (see NativeConfig): page coloring in
// Mapping, the tuned memory controller in DRAM.ControllerCycles,
// DRAM.PipelinedTransfer and DRAM.Banks, 32-byte trap detection in
// TrapGranule, and the shared MAF in Hier.SharedMAF.
type NativeExtras struct {
	// PALTLBMiss: TLB misses run PAL code, stalling the pipeline, in
	// addition to the table walk.
	PALTLBMiss bool
}

// Config fully describes one 21264-family machine.
type Config struct {
	MachineName string

	Feat  Features
	Bugs  Bugs
	Extra NativeExtras

	Hier cache.HierarchyConfig
	DRAM dram.Config
	// DDR, when non-zero, replaces the flat DRAM model described by
	// DRAM with the cycle-accurate DDR subsystem (the sim-alpha-ddr
	// backend).
	DDR     ddr.Config
	Tour    predict.TournamentConfig
	Mapping vm.Mapping

	// Widths and capacities.
	FetchWidth    int // 4: one octaword
	MapWidth      int // 4
	IntIssueWidth int // 4
	FPIssueWidth  int // 2
	RetireWidth   int // 11 (bursty retire)
	IntQueue      int // 20-entry collapsing integer queue
	FPQueue       int // 15-entry floating-point queue
	ROB           int // 80-entry reorder buffer
	RenameRegs    int // rename registers per file (the paper's 40+40)
	MapStallFree  int // stall threshold: free rename registers (8)
	MapStallLen   int // stall length in cycles (3)
	QueueFreeLag  int // cycles after issue before a queue slot frees (2)

	// Front-end penalties (cycles).
	BrRecovery     int // mispredict: resolve-to-refetch bubble (pipeline refill)
	JmpFlush       int // mispredicted jmp: flush and restart (10)
	SlotRedirect   int // branch predictor overrides line predictor (1)
	LineMispredict int // line mispredict caught by training, no rollback (3)
	WayMispredict  int // way mispredict bubble (2)

	// Issue/memory penalties.
	LoadUseRecovery int // squash window after a mispredicted load-use (2)
	TrapPenalty     int // replay trap: re-dispatch from map (14)
	TrapGranule     int // address granularity for conflict detection (bytes, a power of two)
	PALOverhead     int // PAL-code entry/exit cost on native TLB misses

	// Register file experiments (Figure 2).
	RFReadCycles  int  // register file read latency (1 on the 21264)
	PartialBypass bool // restrict bypassing (Figure 2's third configuration)

	// RAS capacity.
	RASEntries int
}

// NewMapper builds a fresh page mapper for one run.
func (c Config) NewMapper() vm.Mapper { return c.Mapping.New() }

// Check verifies the configuration is runnable, returning a
// descriptive error for degenerate or out-of-range values. Run and
// RecordCheckpoints return that error before simulating anything.
func (c Config) Check() error {
	if err := bounds.Check("alpha",
		bounds.Int{Name: "FetchWidth", V: c.FetchWidth, Lo: 1, Hi: 4}, // one octaword
		bounds.Int{Name: "MapWidth", V: c.MapWidth, Lo: 1, Hi: 16},
		bounds.Int{Name: "IntIssueWidth", V: c.IntIssueWidth, Lo: 1, Hi: 16},
		bounds.Int{Name: "FPIssueWidth", V: c.FPIssueWidth, Lo: 0, Hi: 16},
		bounds.Int{Name: "RetireWidth", V: c.RetireWidth, Lo: 1, Hi: 64},
		bounds.Int{Name: "IntQueue", V: c.IntQueue, Lo: 1, Hi: 256},
		bounds.Int{Name: "FPQueue", V: c.FPQueue, Lo: 1, Hi: 256},
		bounds.Int{Name: "ROB", V: c.ROB, Lo: 2 * c.FetchWidth, Hi: 1024},
		bounds.Int{Name: "RenameRegs", V: c.RenameRegs, Lo: 1, Hi: 1024},
		bounds.Int{Name: "MapStallFree", V: c.MapStallFree, Lo: 0, Hi: c.RenameRegs},
		bounds.Int{Name: "MapStallLen", V: c.MapStallLen, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "QueueFreeLag", V: c.QueueFreeLag, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "BrRecovery", V: c.BrRecovery, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "JmpFlush", V: c.JmpFlush, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "SlotRedirect", V: c.SlotRedirect, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "LineMispredict", V: c.LineMispredict, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "WayMispredict", V: c.WayMispredict, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "LoadUseRecovery", V: c.LoadUseRecovery, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "TrapPenalty", V: c.TrapPenalty, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "TrapGranule", V: c.TrapGranule, Lo: 1, Hi: 4096},
		bounds.Int{Name: "PALOverhead", V: c.PALOverhead, Lo: 0, Hi: bounds.MaxCycles},
		bounds.Int{Name: "RFReadCycles", V: c.RFReadCycles, Lo: 1, Hi: 64},
		bounds.Int{Name: "RASEntries", V: c.RASEntries, Lo: 1, Hi: 1024},
	); err != nil {
		return err
	}
	if !bounds.Pow2(c.TrapGranule) {
		return fmt.Errorf("alpha: TrapGranule %d is not a power of two (it masks addresses)", c.TrapGranule)
	}
	if err := c.Hier.Check(); err != nil {
		return err
	}
	if err := c.DRAM.Check(); err != nil {
		return err
	}
	if c.DDR != (ddr.Config{}) {
		if err := c.DDR.Check(); err != nil {
			return err
		}
	}
	if err := c.Tour.Check(); err != nil {
		return err
	}
	return c.Mapping.Check()
}

// DefaultConfig returns the validated sim-alpha configuration
// matching the DS-10L.
func DefaultConfig() Config {
	return Config{
		MachineName: "sim-alpha",
		Feat:        AllFeatures(),
		Hier:        cache.DS10L(),
		DRAM:        dram.DS10LConfig(),
		Tour:        predict.DefaultTournamentConfig(),
		Mapping:     vm.Mapping{Policy: "sequential"},

		FetchWidth:    4,
		MapWidth:      4,
		IntIssueWidth: 4,
		FPIssueWidth:  2,
		RetireWidth:   11,
		IntQueue:      20,
		FPQueue:       15,
		ROB:           80,
		RenameRegs:    40,
		MapStallFree:  8,
		MapStallLen:   3,
		QueueFreeLag:  2,

		BrRecovery:     7,
		JmpFlush:       10,
		SlotRedirect:   1,
		LineMispredict: 3,
		WayMispredict:  2,

		LoadUseRecovery: 2,
		TrapPenalty:     14,
		TrapGranule:     8,
		PALOverhead:     60,

		RFReadCycles: 1,
		RASEntries:   32,
	}
}

// SimInitial returns the unvalidated first version of the simulator:
// the validated configuration plus the full bug catalogue.
func SimInitial() Config {
	cfg := DefaultConfig()
	cfg.MachineName = "sim-initial"
	cfg.Bugs = InitialBugs()
	return cfg
}

// SimStripped returns sim-alpha with the seven performance features
// and three constraints removed (Section 5.1).
func SimStripped() Config {
	cfg := DefaultConfig()
	cfg.MachineName = "sim-stripped"
	cfg.Feat = Stripped()
	cfg.Hier.VictimEntries = 0
	return cfg
}

// WithoutFeature returns cfg with one named feature disabled,
// adjusting dependent structure (the victim buffer lives in the
// hierarchy configuration).
func (c Config) WithoutFeature(name string) Config {
	c.MachineName = c.MachineName + "-" + name
	c.Feat = c.Feat.Without(name)
	if name == "vbuf" {
		c.Hier.VictimEntries = 0
	}
	return c
}

// NativeConfig returns the reference machine: full fidelity plus the
// native extras sim-alpha cannot model. This plays the role of the
// DS-10L hardware in every experiment (see DESIGN.md, hardware
// substitution).
func NativeConfig() Config {
	cfg := DefaultConfig()
	cfg.MachineName = "native-ds10l"
	cfg.Extra = NativeExtras{PALTLBMiss: true}
	// One 8-entry MAF shared among the three caches, versus
	// sim-alpha's per-cache MAFs.
	cfg.Hier.SharedMAF = true
	// The hardware detects load-order conflicts at 32-byte
	// granularity, trapping more often than exact-address comparison
	// (the paper observed the native machine taking ~20% more replay
	// traps on art).
	cfg.TrapGranule = 32
	colors := uint64(cfg.Hier.L2.SizeBytes / cfg.Hier.L2.Assoc / vm.PageSize)
	cfg.Mapping = vm.Mapping{Policy: "page-colored", Colors: colors}
	// The tuned C/D-chip controller overlaps transfers with the next
	// activation and spreads load over more banks: dependent chases
	// (the calibration workloads) see almost the same latency, but
	// concurrent miss streams see much higher sustained bandwidth —
	// exactly the tuning the paper says sim-alpha does not capture.
	cfg.DRAM.ControllerCycles = 1
	cfg.DRAM.PipelinedTransfer = true
	cfg.DRAM.Banks = 16
	// PAL-code TLB handling stalls the pipeline but the handler is
	// short and cached.
	cfg.PALOverhead = 30
	return cfg
}
