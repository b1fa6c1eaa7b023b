package validate

import "fmt"

// Experiment is one named, addressable experiment: the unit shared
// by cmd/validate, the HTTP service, and anything else that needs to
// run "table2" by name. Run regenerates the experiment under the
// given options and returns its rendered result.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) (fmt.Stringer, error)
}

// registry lists every experiment in paper order. This is the single
// source of truth: cmd/validate, the service's /v1/experiment/{name}
// routes, and probe's listings all come from here, so a new
// experiment added to this table is immediately addressable
// everywhere.
var registry = []Experiment{
	{"table1", "Instruction-latency conformance (Table 1)",
		func(o Options) (fmt.Stringer, error) { return Table1(o) }},
	{"table2", "Microbenchmark validation (Table 2)",
		func(o Options) (fmt.Stringer, error) { return Table2(o) }},
	{"sampling", "DCPI sampling-interval trade-off (Section 4.1)",
		func(o Options) (fmt.Stringer, error) { return SamplingStudy(o) }},
	{"memcal", "Memory-system calibration (Section 4.2)",
		func(o Options) (fmt.Stringer, error) { return MemoryCalibration(o) }},
	{"table3", "Macrobenchmark validation (Table 3)",
		func(o Options) (fmt.Stringer, error) { return Table3(o) }},
	{"table4", "Performance-feature ablation (Table 4)",
		func(o Options) (fmt.Stringer, error) { return Table4(o) }},
	{"table5", "Error-stability across configurations (Table 5)",
		func(o Options) (fmt.Stringer, error) { return Table5(o) }},
	{"figure2", "Register-file sensitivity study (Figure 2)",
		func(o Options) (fmt.Stringer, error) { return Figure2(o) }},
	{"mapping", "Page-mapping policy study (Section 6)",
		func(o Options) (fmt.Stringer, error) { return MappingStudy(o) }},
	{"breakdown", "CPI-stack attribution across machine models",
		func(o Options) (fmt.Stringer, error) { return Breakdown(o) }},
	{"sweep", "Design-space sensitivity sweep (one factor at a time)",
		func(o Options) (fmt.Stringer, error) { return Sweep(o) }},
	{"calibration", "Auto-calibration: coordinate descent sim-initial -> native",
		func(o Options) (fmt.Stringer, error) { return Calibration(o) }},
	{"sampled", "Sampled simulation: interval sampling with confidence intervals",
		func(o Options) (fmt.Stringer, error) { return Sampled(o) }},
	{"stability", "Conclusion stability across fidelity tiers (detailed vs analytical)",
		func(o Options) (fmt.Stringer, error) { return Stability(o) }},
	{"attribution", "Single-feature attribution on generated cliff suites (detailed vs analytical)",
		func(o Options) (fmt.Stringer, error) { return Attribution(o) }},
	{"memory", "Memory-system error: flat DRAM vs calibrated cycle-accurate DDR",
		func(o Options) (fmt.Stringer, error) { return Memory(o) }},
}

// Experiments returns every registered experiment in paper order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ExperimentNames returns the registered names in paper order.
func ExperimentNames() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// ExperimentByName returns one registered experiment.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
