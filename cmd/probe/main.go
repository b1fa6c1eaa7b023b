// Command probe is the HTTP client for the simd simulation service.
//
// Usage:
//
//	probe [-addr host:port] <command> [args]
//
// Commands:
//
//	run [-m machine] [-limit N] [-json] [-breakdown] [-sample] [-sample-period N]
//	    [-sample-warmup N] [-sample-measure N] [-sample-intervals N]
//	    [-checkpoint DIR] workload...
//	                                          simulate cells, print a result table
//	experiment [-json] name...                print experiment tables (as cmd/validate)
//	checkpoint save [-m machine] [-limit N] [-dir DIR] workload...
//	                                          record a checkpoint library (local)
//	checkpoint ls [-dir DIR]                  list stored checkpoint libraries
//	checkpoint restore [-m machine] [-dir DIR] [-pos I] [-run N] workload
//	                                          restore one checkpoint and run from it
//	sweep [-m machine] [-analysis A] [-strategy S] [-limit N] [-json] [...] axis...
//	                                          submit a design-space sweep job and
//	                                          poll it to completion
//	machines [-json]                          list served machine models
//	workloads [-json]                         list served workloads
//	workloads generate [-seed N] [-iters N] [axis flags...]
//	    [-family NAME -axis AXIS -levels v1,v2,...] [-json]
//	                                          mint generated workloads on the service
//	health                                    check /healthz
//	metrics                                   dump /metrics
//
// -json switches output to machine-readable JSON (one object per
// line; for machines/workloads/sweep, the service body verbatim);
// pretty text stays the default. -breakdown adds each run's CPI stack
// to the text table. -sample requests interval sampling: the run
// reports a CPI estimate with its 95% confidence interval and the
// detailed-instruction reduction; the -sample-* knobs override the
// service's default schedule.
//
// The checkpoint subcommands and `run -checkpoint DIR` are local
// operations (no service round trip): they record, inspect, and run
// against checkpoint libraries in an on-disk content-addressed store
// — the same store layout a simd -store uses, so a directory can be
// shared between probe and the daemons.
//
// A sweep axis is "name=Field:v1,v2,..." — a display name, a
// dot-path into the machine's config struct, and the candidate
// values (first = baseline), e.g. rob=ROB:80,40,20 or
// openpage=DRAM.OpenPage:true,false. With -analysis calibration and
// no axes, the server calibrates the sim-initial bug catalogue
// against the reference machine.
//
// Examples:
//
//	probe -addr :8080 run -m sim-alpha gzip
//	probe run -breakdown -m sim-alpha M-M
//	probe experiment table2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/events"
	"repro/internal/service"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: probe [-addr host:port] <command> [args]

commands:
  run [-m machine] [-limit N] [-json] [-breakdown] [-sample] [-sample-period N]
      [-sample-warmup N] [-sample-measure N] [-sample-intervals N]
      [-checkpoint DIR] workload...
                                            simulate cells, print a result table
  experiment [-json] name...                print experiment tables (as cmd/validate)
  checkpoint save [-m machine] [-limit N] [-dir DIR] workload...
                                            record a checkpoint library (local)
  checkpoint ls [-dir DIR]                  list stored checkpoint libraries
  checkpoint restore [-m machine] [-dir DIR] [-pos I] [-run N] workload
                                            restore one checkpoint and run from it
  sweep [-m machine] [-analysis A] [-strategy S] [-limit N] [-json] [...] axis...
                                            submit a sweep job (axis: name=Field:v1,v2,...)
                                            and poll it to completion
  machines [-json]                          list served machine models
  workloads [-json]                         list served workloads
  workloads generate [-seed N] [-iters N] [axis flags...]
      [-family NAME -axis AXIS -levels v1,v2,...] [-json]
                                            mint generated workloads on the service
  health                                    check /healthz
  metrics                                   dump /metrics
`)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", ":8080", "simd address (host:port or URL)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}

	ctx, c := context.Background(), service.NewClient(*addr)
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "run":
		err = cmdRun(ctx, c, args)
	case "experiment":
		err = cmdExperiment(ctx, c, args)
	case "checkpoint":
		err = cmdCheckpoint(args)
	case "sweep":
		err = cmdSweep(ctx, c, args)
	case "machines":
		err = cmdMachines(ctx, c, args)
	case "workloads":
		err = cmdWorkloads(ctx, c, args)
	case "health":
		err = cmdGet(ctx, c, "/healthz")
	case "metrics":
		err = cmdGet(ctx, c, "/metrics")
	default:
		fmt.Fprintf(os.Stderr, "probe: unknown command %q\n", cmd)
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "probe: %v\n", err)
		os.Exit(1)
	}
}

func cmdRun(ctx context.Context, c *service.Client, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var req service.RunRequest
	fs.StringVar(&req.Machine, "m", "sim-alpha", "machine model")
	fs.Uint64Var(&req.Limit, "limit", 0, "dynamic instruction cap (0 = workload length)")
	asJSON := fs.Bool("json", false, "print the raw JSON response, one object per line")
	breakdown := fs.Bool("breakdown", false, "print each run's CPI stack under its row")
	fs.BoolVar(&req.Sample, "sample", false, "run under interval sampling (default schedule)")
	fs.Uint64Var(&req.SamplePeriod, "sample-period", 0, "sampling period in instructions")
	fs.Uint64Var(&req.SampleWarmup, "sample-warmup", 0, "detailed warmup instructions per interval")
	fs.Uint64Var(&req.SampleMeasure, "sample-measure", 0, "measured instructions per interval")
	fs.IntVar(&req.SampleIntervals, "sample-intervals", 0, "stop after N measured intervals")
	ckptDir := fs.String("checkpoint", "", "run locally against a checkpoint-library store directory")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("run: at least one workload is required")
	}
	if *ckptDir != "" {
		return runCheckpointSampled(req.Machine, *ckptDir, req.Limit, *asJSON, fs.Args())
	}

	if !*asJSON {
		fmt.Printf("%-14s %-10s %12s %12s %7s %7s  %s\n",
			"machine", "workload", "insts", "cycles", "ipc", "cpi", "cache")
	}
	for _, w := range fs.Args() {
		req.Workload = w
		r, status, err := c.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("run %s: %w", w, err)
		}
		if *asJSON {
			// Re-encoding the typed response reproduces the service's
			// body byte for byte (pinned by the service client tests).
			if err := printJSON(r); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("%-14s %-10s %12d %12d %7.3f %7.3f  %s\n",
			r.Machine, r.Workload, r.Instructions, r.Cycles, r.IPC, r.CPI, status)
		if s := r.Sampled; s != nil {
			fmt.Printf("  %-12s cpi %.3f ±%.3f (%d%% CI, %d intervals, plan %d/%d/%d) detail %d/%d insts, %.1fx\n",
				"sampled", s.CPI.Mean, s.CPI.Half, int(100*s.CPI.Level), s.Intervals,
				s.Plan.Period, s.Plan.Warmup, s.Plan.Measure,
				s.DetailedInstructions, s.StreamInstructions, s.Speedup)
		}
		if *breakdown && r.Breakdown != nil {
			printBreakdown(r)
		}
	}
	return nil
}

// printJSON prints v as one line of JSON.
func printJSON(v any) error {
	out, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printBreakdown renders one run's CPI stack as an indented line of
// per-component CPI contributions, in canonical component order.
func printBreakdown(r service.RunResponse) {
	fmt.Printf("  %-12s", "breakdown")
	for c := events.Component(0); c < events.NumComponents; c++ {
		cpi := 0.0
		if r.Instructions > 0 {
			cpi = float64(r.Breakdown[c]) / float64(r.Instructions)
		}
		fmt.Printf("  %s %.3f", c.Name(), cpi)
	}
	fmt.Println()
}

func cmdExperiment(ctx context.Context, c *service.Client, args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print JSON objects {name, output} instead of tables")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("experiment: at least one name is required (try: probe experiment table2)")
	}
	for _, name := range fs.Args() {
		out, err := c.Experiment(ctx, name)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		if *asJSON {
			if err := printJSON(map[string]string{"name": name, "output": out}); err != nil {
				return err
			}
			continue
		}
		// Same rendering as cmd/validate: the table, then a blank line.
		fmt.Println(out)
	}
	return nil
}

func cmdMachines(ctx context.Context, c *service.Client, args []string) error {
	fs := flag.NewFlagSet("machines", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the raw JSON catalogue")
	fs.Parse(args)
	machines, err := c.Machines(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(machines)
	}
	for _, m := range machines {
		// Compact capability letters: C heckpointable, S amplable,
		// K (CPI stacK); a dash marks the gap.
		caps := [3]byte{'-', '-', '-'}
		if m.Capabilities.Checkpointable {
			caps[0] = 'C'
		}
		if m.Capabilities.Samplable {
			caps[1] = 'S'
		}
		if m.Capabilities.CPIStack {
			caps[2] = 'K'
		}
		fmt.Printf("%-14s %-12s %-10s %s %s\n",
			m.Name, m.Fingerprint, m.Tier, caps[:], m.Description)
	}
	return nil
}

func cmdWorkloads(ctx context.Context, c *service.Client, args []string) error {
	if len(args) > 0 && args[0] == "generate" {
		return cmdGenerate(ctx, c, args[1:])
	}
	fs := flag.NewFlagSet("workloads", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the raw JSON catalogue")
	fs.Parse(args)
	workloads, err := c.Workloads(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(workloads)
	}
	for _, w := range workloads {
		fmt.Printf("%-40s %-12s %-10s", w.Name, w.Suite, w.Category)
		if w.Family != "" {
			fmt.Printf(" %s %s=%d", w.Family, w.Axis, w.Level)
		}
		fmt.Println()
	}
	return nil
}

// cmdGet prints a text route verbatim.
func cmdGet(ctx context.Context, c *service.Client, path string) error {
	body, err := c.Get(ctx, path)
	if err != nil {
		return err
	}
	fmt.Print(body)
	return nil
}
