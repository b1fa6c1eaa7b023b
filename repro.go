// Package repro is the public API of this repository: a
// reproduction, as a Go library, of Desikan, Burger and Keckler,
// "Measuring Experimental Error in Microprocessor Simulation"
// (ISCA 2001).
//
// The library provides:
//
//   - the machines: the validated 21264 model (sim-alpha), its
//     unvalidated ancestor (sim-initial), the de-featured variant
//     (sim-stripped), the SimpleScalar-style RUU model
//     (sim-outorder), and the simulated reference machine that stands
//     in for the paper's Compaq DS-10L (see DESIGN.md);
//   - the workloads: the paper's 21 microbenchmarks, the STREAM and
//     lmbench calibration kernels, and synthetic stand-ins for the
//     ten SPEC2000 macrobenchmarks;
//   - the experiments: every table and figure of the paper's
//     evaluation, regenerated against the reference machine;
//   - the substrate needed to build new workloads: an assembler for
//     the AXP-lite instruction set.
//
// Quick start:
//
//	m := repro.SimAlpha()
//	w, _ := repro.WorkloadByName("C-Ca")
//	res, err := m.Run(w)
//	fmt.Println(res.IPC())
package repro

import (
	"fmt"
	"io"
	"os"

	"repro/internal/asm"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/macrobench"
	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/validate"
	"repro/internal/workgen"
)

// Machine is any timing model that can run a Workload; see the
// constructors below.
type Machine = core.Machine

// Workload is one benchmark program.
type Workload = core.Workload

// RunResult is the outcome of one run: instruction and cycle counts
// plus machine-specific event counters.
type RunResult = core.RunResult

// Every constructor below resolves through the backend registry
// (internal/model), the one place that knows machines by name; see
// Backends for the catalogue with fidelity tiers and capabilities.

// SimAlpha returns the validated Alpha 21264 simulator, the paper's
// primary artifact.
func SimAlpha() Machine { return model.MustNew("sim-alpha") }

// SimInitial returns the unvalidated initial simulator: sim-alpha
// plus the catalogued modeling, specification and abstraction bugs of
// Section 3.4.
func SimInitial() Machine { return model.MustNew("sim-initial") }

// SimStripped returns sim-alpha with the seven performance features
// and three clock-rate constraints removed (Section 5.1).
func SimStripped() Machine { return model.MustNew("sim-stripped") }

// SimOutorder returns the SimpleScalar-style RUU simulator.
func SimOutorder() Machine { return model.MustNew("sim-outorder") }

// NativeDS10L returns the reference machine standing in for the
// paper's Compaq DS-10L workstation, measured through the emulated
// DCPI sampling profiler.
func NativeDS10L() Machine { return model.MustNew("native-ds10l") }

// SimInorder returns a single-issue, in-order, blocking-cache model
// (a Mipsy-class simulator), extending the paper's comparison set
// with the simplest credible timing model.
func SimInorder() Machine { return model.MustNew("sim-inorder") }

// SimInterval returns the analytical interval-model estimator: one
// functional pass counting miss events, cycles derived in closed
// form. The cheapest fidelity tier — see the stability experiment for
// where its conclusions diverge from the detailed model's.
func SimInterval() Machine { return model.MustNew("sim-interval") }

// SimAlphaDDR returns sim-alpha with the flat DRAM latency table
// replaced by the cycle-accurate DDR memory subsystem (banked, with
// row-buffer policies and controller scheduling — internal/ddr). The
// memory experiment quantifies what the flat model gets wrong.
func SimAlphaDDR() Machine { return model.MustNew("sim-alpha-ddr") }

// Backend describes one registered timing model: name, description,
// fidelity tier, and discovered capability flags.
type Backend = model.Descriptor

// Backends returns every registered timing model, reference machine
// first, then the simulators in decreasing fidelity order.
func Backends() []Backend { return model.Backends() }

// NewMachine constructs a machine by backend name ("sim-alpha",
// "native-ds10l", ...; the bare model name is accepted, so "interval"
// resolves to "sim-interval"). Unknown names return an error wrapping
// model.ErrUnknownBackend.
func NewMachine(name string) (Machine, error) { return model.New(name) }

// FeatureNames lists the ten 21264 features of Tables 4 and 5:
// addr, eret, luse, pref, spec, stwt, vbuf, maps, slot, trap.
func FeatureNames() []string { return model.AlphaFeatures() }

// SimAlphaTraced returns the validated simulator with a pipeline
// event trace: one line per retired instruction (fetch/map/issue/
// complete/retire cycles), the counterpart of SimpleScalar's ptrace.
func SimAlphaTraced(w io.Writer) Machine {
	return model.TraceAlpha(model.DefaultAlphaConfig(), w)
}

// SimAlphaWithout returns sim-alpha with one named feature disabled.
// It panics on an unknown feature name; see FeatureNames.
func SimAlphaWithout(feature string) Machine {
	return model.MustBuild(model.DefaultAlphaConfig().WithoutFeature(feature))
}

// Microbenchmarks returns the paper's 21-benchmark validation suite
// in Table 2 order.
func Microbenchmarks() []Workload { return microbench.Suite() }

// CalibrationWorkloads returns the Section 4.2 memory-calibration
// set: M-M, STREAM and lmbench.
func CalibrationWorkloads() []Workload { return microbench.Calibration() }

// Macrobenchmarks returns the ten SPEC2000 proxies in Table 3 order.
func Macrobenchmarks() []Workload { return macrobench.Suite() }

// WorkloadByName finds a workload across all suites (micro, macro,
// and calibration).
func WorkloadByName(name string) (Workload, bool) {
	if w, ok := microbench.ByName(name); ok {
		return w, true
	}
	return macrobench.ByName(name)
}

// Generated workloads: deterministic synthetic programs positioned on
// the microarchitectural feature space by a typed spec, for probing
// where a timing model's behavior breaks (cache-size, associativity,
// predictor-capacity cliffs). See internal/workgen for the axes and
// the attribution experiment for the cliff suites in use.
type (
	// WorkloadSpec parameterizes one generated workload; the zero
	// value is invalid — start from DefaultWorkloadSpec.
	WorkloadSpec = workgen.Spec
	// WorkloadFamily sweeps one spec axis across several levels.
	WorkloadFamily = workgen.Family
)

// DefaultWorkloadSpec returns the balanced mid-space starting point
// every generation axis perturbs.
func DefaultWorkloadSpec() WorkloadSpec { return workgen.DefaultSpec() }

// GenerateWorkload deterministically synthesizes the program a spec
// describes: the same spec always yields byte-identical code, and the
// workload's name is a pure function of the spec.
func GenerateWorkload(s WorkloadSpec) (Workload, error) { return workgen.Generate(s) }

// GenerateFamily synthesizes every member of a one-axis family, in
// level order.
func GenerateFamily(f WorkloadFamily) ([]Workload, error) { return f.Workloads() }

// PctErrorCPI returns the paper's simulator-error metric: the percent
// difference in CPI of a simulator against a reference. Negative
// means the simulator underestimates performance.
func PctErrorCPI(refIPC, simIPC float64) float64 {
	return stats.PctErrorCPI(refIPC, simIPC)
}

// Sampled simulation: run a workload under SMARTS-style systematic
// interval sampling and get CPI (and per-component CPI-stack)
// estimates with Student-t confidence intervals, at a fraction of the
// detailed-simulation cost. See internal/sample for the estimator and
// internal/core for the schedule mechanics every machine honors.
type (
	// SamplePlan is the sampling schedule: per Period instructions,
	// Warmup+Measure run in detail and the rest fast-forward.
	SamplePlan = core.SamplePlan
	// SampledEstimates holds the per-interval observations reduced to
	// point estimates with confidence intervals.
	SampledEstimates = sample.Result
)

// DefaultSamplePlan returns the canonical schedule for a run length:
// ten intervals, 10% warmup per period, a 5x detailed-instruction
// reduction.
func DefaultSamplePlan(limit uint64) SamplePlan { return sample.PlanFor(limit) }

// RunSampled runs the workload on the machine under the plan and
// returns the estimates at the default 95% confidence level.
func RunSampled(m Machine, w Workload, plan SamplePlan) (SampledEstimates, error) {
	return sample.Run(m, w, plan, 0)
}

// Checkpointed sampling: record a library of warmed checkpoints once,
// then run sampled simulations that restore each interval's
// checkpoint instead of fast-forwarding the whole stream — the
// measured path touches only the detailed windows, and the intervals
// run in parallel. See internal/checkpoint for the serialized state
// and internal/sample for the library mechanics.

// CheckpointLibrary is a recorded set of interval-boundary
// checkpoints for one (workload, warm-relevant configuration) pair.
type CheckpointLibrary = checkpoint.Library

// CheckpointLibraryPlan returns the canonical checkpointed-sampling
// schedule for a run length: one hundred intervals at a 10x
// detailed+warming-instruction reduction.
func CheckpointLibraryPlan(limit uint64) SamplePlan { return sample.LibraryPlanFor(limit) }

// BuildCheckpointLibrary records the checkpoint library for the
// workload under the plan (one functional-warming pass, a snapshot at
// each interval boundary). The machine must support checkpoint
// recording; all four timing models do.
func BuildCheckpointLibrary(m Machine, w Workload, plan SamplePlan) (*CheckpointLibrary, error) {
	return sample.BuildLibrary(m, w, plan)
}

// RunCheckpointSampled runs a sampled simulation against a recorded
// library: every interval restores its checkpoint and simulates only
// warmup+measure in detail, in parallel (parallelism 0 = one worker
// per core).
func RunCheckpointSampled(m Machine, w Workload, lib *CheckpointLibrary, plan SamplePlan, parallelism int) (SampledEstimates, error) {
	return sample.RunWithLibrary(m, w, lib, plan, parallelism, 0)
}

// Experiment re-exports: each function regenerates one table or
// figure of the paper against the in-repo reference machine.
type (
	// Options tunes experiment cost; the zero value runs full length.
	Options = validate.Options
	// Table2Result is the microbenchmark validation (Table 2).
	Table2Result = validate.Table2Result
	// Table3Result is the macrobenchmark validation (Table 3).
	Table3Result = validate.Table3Result
	// Table4Result is the feature ablation (Table 4).
	Table4Result = validate.Table4Result
	// Table5Result is the stability study (Table 5).
	Table5Result = validate.Table5Result
	// Figure2Result is the register-file sensitivity study (Figure 2).
	Figure2Result = validate.Figure2Result
	// MemCalResult is the Section 4.2 memory-parameter sweep.
	MemCalResult = validate.MemCalResult
)

// Table2 regenerates the microbenchmark validation table.
func Table2(opt Options) (Table2Result, error) { return validate.Table2(opt) }

// Table3 regenerates the macrobenchmark validation table.
func Table3(opt Options) (Table3Result, error) { return validate.Table3(opt) }

// Table4 regenerates the feature-ablation table.
func Table4(opt Options) (Table4Result, error) { return validate.Table4(opt) }

// Table5 regenerates the stability matrix.
func Table5(opt Options) (Table5Result, error) { return validate.Table5(opt) }

// Figure2 regenerates the register-file sensitivity study.
func Figure2(opt Options) (Figure2Result, error) { return validate.Figure2(opt) }

// MemoryCalibration reruns the Section 4.2 DRAM parameter sweep.
func MemoryCalibration(opt Options) (MemCalResult, error) {
	return validate.MemoryCalibration(opt)
}

// Assembler access, for building custom workloads against the
// machines.
type (
	// ProgramBuilder assembles AXP-lite programs; see NewProgram.
	ProgramBuilder = asm.Builder
	// Program is an assembled program.
	Program = asm.Program
	// Inst is one AXP-lite instruction.
	Inst = isa.Inst
	// Reg names an architectural register.
	Reg = isa.Reg
	// Op is an AXP-lite opcode.
	Op = isa.Op
)

// NewProgram returns a builder for a custom workload program.
func NewProgram(name string) *ProgramBuilder { return asm.NewBuilder(name) }

// ParseProgram assembles AXP-lite source text (the disassembler's
// syntax plus labels and data directives; see internal/asm.Parse).
func ParseProgram(name, src string) (*Program, error) { return asm.Parse(name, src) }

// NewWorkload wraps an assembled program as a runnable workload.
func NewWorkload(name string, p *Program) Workload {
	return Workload{Name: name, Prog: p, Category: "custom"}
}

// SaveProgram writes a program in the AXPL object format.
func SaveProgram(w io.Writer, p *Program) error { return asm.WriteObject(w, p) }

// LoadProgram reads a program from the AXPL object format.
func LoadProgram(r io.Reader) (*Program, error) { return asm.ReadObject(r) }

// RecordTrace executes the workload functionally and writes its
// dynamic instruction stream in the AXPT trace format, returning the
// record count.
func RecordTrace(w io.Writer, wl Workload) (uint64, error) {
	tw, err := cpu.NewTraceWriter(w)
	if err != nil {
		return 0, err
	}
	return tw.Record(wl.Source())
}

// WorkloadFromTrace returns a workload that replays a recorded AXPT
// trace file through any machine (trace-driven simulation from disk).
// The file is reopened on every run.
func WorkloadFromTrace(name, path string) Workload {
	return Workload{
		Name:     name,
		Category: "trace",
		NewSource: func() cpu.Source {
			f, err := os.Open(path)
			if err != nil {
				return errSource{fmt.Errorf("repro: %w", err)}
			}
			tr, err := cpu.NewTraceReader(f)
			if err != nil {
				return errSource{err}
			}
			return tr
		},
	}
}

// errSource is an empty stream standing in for an unopenable trace;
// its Err fails the run.
type errSource struct{ err error }

func (e errSource) Next() (cpu.Record, bool) { return cpu.Record{}, false }
func (e errSource) Err() error               { return e.err }
