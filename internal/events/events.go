// Package events is the unified instrumentation layer shared by every
// timing model in the repository. It replaces the ad-hoc per-model
// counter maps with one typed schema — enumerated event IDs carrying
// canonical names, units and per-model applicability — and one
// attribution vocabulary, the CPI stack: every cycle of a run charged
// to the microarchitectural cause that spent it.
//
// The schema is the single source of truth for counter names. A model
// that adopts it cannot drift from the others: the legacy
// map[string]uint64 each model returns is generated from the schema
// (Collector.Counters), so two models that both count, say, L2 misses
// necessarily agree on the key "l2_misses".
//
// The CPI stack is the paper's Table 5 framing turned into a run
// artifact. Where Table 5 attributes performance to individual 21264
// features by ablation (remove the feature, measure the delta), the
// stack attributes the cycles of a single run to causes directly:
// base issue, I-cache misses, data misses by hierarchy level, branch
// mispredict recovery, replay traps, and front-end structural stalls.
// Models guarantee the components sum exactly to total cycles, so a
// stack is a lossless decomposition, not an estimate.
package events

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// ID enumerates every event any machine model can count. The numeric
// values are internal — stable names come from the schema table.
type ID uint8

// The event catalogue. An event's canonical name (Def.Name) is the
// key models have historically used in their counter maps; the schema
// makes those names authoritative.
const (
	BrMispredicts ID = iota
	LineMispredicts
	WayMispredicts
	JmpMispredicts
	BTBMisses
	LoadUseSquashes
	ReplayTraps
	MboxTraps
	MapStalls
	ICacheMisses
	DCacheMisses
	L2Misses
	TLBMisses
	DRAMAccesses
	Prefetches
	DRAMRowHits
	DRAMBankConflicts
	DRAMQueueWaits

	NumEvents // count sentinel, not an event
)

// Model identifies a timing-model family for applicability checks.
// The values are bits so a Def can name several families at once.
type Model uint8

const (
	// ModelAlpha is the 21264 pipeline family (sim-alpha, sim-initial,
	// sim-stripped and the ablation variants).
	ModelAlpha Model = 1 << iota
	// ModelRUU is the SimpleScalar sim-outorder-style RUU model.
	ModelRUU
	// ModelInOrder is the single-issue blocking-cache model.
	ModelInOrder
	// ModelInterval is the analytical interval-model estimator: cycles
	// derived from measured event counts rather than simulated per
	// cycle, so only the miss/mispredict events apply to it.
	ModelInterval
)

// allModels is every model family.
const allModels = ModelAlpha | ModelRUU | ModelInOrder | ModelInterval

// alphaSide is the 21264 pipeline, which the native reference
// machine also runs.
const alphaSide = ModelAlpha

// Def describes one event: its canonical counter name, its unit, the
// models it applies to, and a one-line meaning.
type Def struct {
	Name   string
	Unit   string
	Models Model
	Desc   string
}

// defs is the schema, indexed by ID. This table is the one place
// counter names are defined; see README "Instrumentation".
var defs = [NumEvents]Def{
	BrMispredicts:   {"br_mispredicts", "events", allModels, "conditional-branch direction mispredictions"},
	LineMispredicts: {"line_mispredicts", "events", alphaSide, "line-predictor target mispredictions"},
	WayMispredicts:  {"way_mispredicts", "events", alphaSide, "I-cache way-predictor misses"},
	JmpMispredicts:  {"jmp_mispredicts", "events", alphaSide, "mispredicted indirect jumps (register targets)"},
	BTBMisses:       {"btb_misses", "events", ModelRUU, "branch-target-buffer misses on taken branches"},
	LoadUseSquashes: {"loaduse_squashes", "events", alphaSide, "load-use speculation squashes"},
	ReplayTraps:     {"replay_traps", "events", alphaSide, "memory-order replay traps"},
	MboxTraps:       {"mbox_traps", "events", alphaSide, "MAF-conflict pipeline flushes"},
	MapStalls:       {"map_stalls", "events", alphaSide, "rename-register map stalls"},
	ICacheMisses:    {"icache_misses", "events", allModels, "L1 instruction-cache misses"},
	DCacheMisses:    {"dcache_misses", "events", allModels, "L1 data-cache misses (victim-buffer hits excluded)"},
	L2Misses:        {"l2_misses", "events", allModels, "unified L2 misses (DRAM accesses from the hierarchy)"},
	TLBMisses:       {"tlb_misses", "events", alphaSide, "TLB misses (table walks)"},
	DRAMAccesses:    {"dram_accesses", "events", allModels, "DRAM controller accesses"},
	Prefetches:      {"prefetches", "events", allModels, "I-cache prefetch lines fetched"},
	// The memory-backend counters (internal/mem.Stats): the flat SDRAM
	// model reports its page accounting through them; the DDR
	// controller additionally reports request-queue pressure.
	DRAMRowHits:       {"dram_row_hits", "events", allModels, "row-buffer (open page) hits at the memory controller"},
	DRAMBankConflicts: {"dram_bank_conflicts", "events", allModels, "accesses that waited behind earlier work on the same bank"},
	DRAMQueueWaits:    {"dram_queue_waits", "cycles", allModels, "cycles spent waiting for a bounded per-bank request-queue slot"},
}

// Name returns the event's canonical counter name.
func (id ID) Name() string { return defs[id].Name }

// Unit returns the event's unit ("events" for occurrence counts).
func (id ID) Unit() string { return defs[id].Unit }

// Desc returns the event's one-line meaning.
func (id ID) Desc() string { return defs[id].Desc }

// All returns every event ID in schema order.
func All() []ID {
	out := make([]ID, NumEvents)
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

// Lookup resolves a canonical counter name to its event ID.
func Lookup(name string) (ID, bool) {
	for i := ID(0); i < NumEvents; i++ {
		if defs[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// Component enumerates the CPI-stack buckets every cycle of a run is
// attributed to. The order here is the canonical rendering order.
type Component uint8

const (
	// CompBase is useful work plus anything not attributable to a
	// specific stall cause: cycles that retired instructions,
	// execution latency, dependence chains on computation results, and
	// issue-bandwidth limits.
	CompBase Component = iota
	// CompICache is front-end stall on L1 instruction-cache misses.
	CompICache
	// CompDCache is data stall served from the L2 (L1D miss, L2 hit).
	CompDCache
	// CompL2 is data stall served from DRAM (L2 miss).
	CompL2
	// CompDRAM is memory-system overhead beyond the cache hierarchy:
	// TLB table walks and PAL-code TLB handling.
	CompDRAM
	// CompBranch is control recovery: direction, line, way and
	// indirect-jump mispredict bubbles and pipeline refill.
	CompBranch
	// CompReplay is replay-trap recovery: memory-order traps, MAF
	// (mbox) traps and load-use mis-speculation squash windows.
	CompReplay
	// CompFrontend is structural front-end stall: map-stage rename
	// stalls, full issue queues, LSQ/ROB pressure and fetch-to-map
	// delivery bubbles.
	CompFrontend

	NumComponents // count sentinel, not a component
)

// componentNames is the canonical short-name table, in render order.
var componentNames = [NumComponents]string{
	"base", "icache", "dcache", "l2", "dram", "branch", "replay", "frontend",
}

// Name returns the component's canonical short name.
func (c Component) Name() string { return componentNames[c] }

// ComponentNames returns the canonical names in render order.
func ComponentNames() []string {
	out := make([]string, NumComponents)
	for i := range out {
		out[i] = componentNames[i]
	}
	return out
}

// LookupComponent resolves a canonical component name.
func LookupComponent(name string) (Component, bool) {
	for i := Component(0); i < NumComponents; i++ {
		if componentNames[i] == name {
			return i, true
		}
	}
	return 0, false
}

// Stack is one run's CPI stack: cycles attributed per component,
// indexed by Component. A Stack produced by a machine model sums
// exactly to the run's total cycles.
type Stack [NumComponents]uint64

// Sum returns the total attributed cycles.
func (s Stack) Sum() uint64 {
	var t uint64
	for _, v := range s {
		t += v
	}
	return t
}

// MarshalJSON renders the stack as an object with components in
// canonical order, so JSON output is deterministic and readable:
//
//	{"base":123,"icache":4,...}
func (s Stack) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for c := Component(0); c < NumComponents; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(c.Name()))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(s[c], 10))
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON accepts the object form produced by MarshalJSON.
// Unknown keys are an error so schema drift is caught at the client.
func (s *Stack) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	var out Stack
	for k, v := range m {
		c, ok := LookupComponent(k)
		if !ok {
			return fmt.Errorf("events: unknown CPI-stack component %q", k)
		}
		out[c] = v
	}
	*s = out
	return nil
}

// Collector receives instrumentation from a pipeline core as it runs:
// occurrence counts at miss/trap/mispredict points and cycle
// attribution at stall points. The core contract is that Attribute is
// called for every cycle the machine did not retire work, with the
// component that caused the stall, so the base component can be
// derived as the exact remainder (see Finish). It uses fixed-size
// arrays, no maps and no allocation on the hot path, so a pipeline
// core can call it every cycle without measurable overhead.
type Collector struct {
	counts [NumEvents]uint64
	stack  Stack
}

// Count records n occurrences of the event.
func (c *Collector) Count(id ID, n uint64) { c.counts[id] += n }

// Attribute charges cycles to a CPI-stack component.
func (c *Collector) Attribute(comp Component, cycles uint64) { c.stack[comp] += cycles }

// Get returns one event's accumulated count.
func (c *Collector) Get(id ID) uint64 { return c.counts[id] }

// Set overwrites one event's accumulated count. It exists for
// counters owned by a component outside the pipeline core (the memory
// hierarchy's DRAM-access and prefetch totals): the model folds those
// in by assignment rather than Count's accumulation, so the fold is
// idempotent and can run both mid-run (before a sampling snapshot)
// and at the end of the run without double counting.
func (c *Collector) Set(id ID, n uint64) { c.counts[id] = n }

// Since returns the element-wise difference c - prev over both the
// event counts and the stack: the activity between two snapshots of
// the same monotonically growing collector. The receiver and prev are
// unchanged.
func (c *Collector) Since(prev *Collector) Collector {
	var d Collector
	for i := range c.counts {
		d.counts[i] = c.counts[i] - prev.counts[i]
	}
	for i := range c.stack {
		d.stack[i] = c.stack[i] - prev.stack[i]
	}
	return d
}

// Merge adds o's counts and stack into c.
func (c *Collector) Merge(o *Collector) {
	for i := range c.counts {
		c.counts[i] += o.counts[i]
	}
	for i := range c.stack {
		c.stack[i] += o.stack[i]
	}
}

// Counters renders the legacy counter map for a model: every schema
// event applicable to the model, keyed by canonical name, zeros
// included, so a missing key means "not modeled", never "didn't
// happen".
func (c *Collector) Counters(m Model) map[string]uint64 {
	out := make(map[string]uint64)
	for i := ID(0); i < NumEvents; i++ {
		if defs[i].Models&m != 0 {
			out[defs[i].Name] = c.counts[i]
		}
	}
	return out
}

// Finish closes attribution for a run of the given total cycle count
// and returns the completed stack: the base component is set to the
// exact unattributed remainder, so the stack always sums to
// totalCycles. Attributed stall cycles exceeding the total (which a
// correctly instrumented per-cycle accounting cannot produce) are
// clamped proportionally rather than allowed to corrupt the sum.
func (c *Collector) Finish(totalCycles uint64) Stack {
	s := c.stack
	var attributed uint64
	for comp := Component(0); comp < NumComponents; comp++ {
		if comp == CompBase {
			continue
		}
		attributed += s[comp]
	}
	if attributed > totalCycles {
		// Defensive: scale stall components down to fit, largest
		// remainder to the largest component, keeping determinism.
		var scaled, largest uint64
		var largestComp Component
		for comp := Component(0); comp < NumComponents; comp++ {
			if comp == CompBase {
				continue
			}
			s[comp] = s[comp] * totalCycles / attributed
			scaled += s[comp]
			if s[comp] >= largest {
				largest = s[comp]
				largestComp = comp
			}
		}
		s[largestComp] += totalCycles - scaled
		attributed = totalCycles
	}
	s[CompBase] = totalCycles - attributed
	return s
}
