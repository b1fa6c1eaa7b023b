package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/service"
)

func cmdSweep(ctx context.Context, c *service.Client, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var req service.SweepRequest
	fs.StringVar(&req.Machine, "m", "", "machine whose config is swept (server default: sim-alpha)")
	fs.StringVar(&req.Analysis, "analysis", "", "analysis: sensitivity, calibration, or empty for raw points")
	fs.StringVar(&req.Strategy, "strategy", "", "enumeration: grid (default), random, or ofat")
	fs.Int64Var(&req.Seed, "seed", 0, "seed for -strategy random")
	fs.IntVar(&req.Samples, "samples", 0, "sample count for -strategy random")
	fs.Uint64Var(&req.Limit, "limit", 0, "dynamic instruction cap per cell (0 = workload length)")
	workloads := fs.String("workloads", "", "comma-separated workload names (empty = microbenchmark suite)")
	fs.StringVar(&req.Reference, "reference", "", "reference machine for analyses (server default: native-ds10l)")
	fs.IntVar(&req.MaxRounds, "rounds", 0, "calibration round bound (0 = server default)")
	wait := fs.Bool("wait", true, "poll the job to completion (false: print the submit response and exit)")
	asJSON := fs.Bool("json", false, "print the job's raw JSON instead of text")
	fs.Parse(args)

	if *workloads != "" {
		req.Workloads = strings.Split(*workloads, ",")
	}
	for _, arg := range fs.Args() {
		a, err := parseAxis(arg)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		req.Axes = append(req.Axes, a)
	}

	job, err := c.SubmitSweep(ctx, req)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if !*wait {
		if *asJSON {
			return printJSON(job)
		}
		fmt.Printf("submitted %s (%d points); poll with GET /v1/sweep/%s\n",
			job.ID, job.Points, job.ID)
		return nil
	}

	final, err := c.WaitSweep(ctx, job.ID)
	if err != nil {
		return fmt.Errorf("sweep %s: %w", job.ID, err)
	}
	if *asJSON {
		return printJSON(final)
	}
	return printSweepJob(final)
}

// parseAxis decodes "name=Field:v1,v2,..." into a request axis.
// Values parse as bool, then integer, then float.
func parseAxis(s string) (service.SweepAxis, error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return service.SweepAxis{}, fmt.Errorf("axis %q: want name=Field:v1,v2,...", s)
	}
	field, list, ok := strings.Cut(rest, ":")
	if !ok || field == "" || list == "" {
		return service.SweepAxis{}, fmt.Errorf("axis %q: want name=Field:v1,v2,...", s)
	}
	var vals []any
	for _, v := range strings.Split(list, ",") {
		switch {
		case v == "true" || v == "false":
			vals = append(vals, v == "true")
		default:
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				vals = append(vals, n)
			} else if f, err := strconv.ParseFloat(v, 64); err == nil {
				vals = append(vals, f)
			} else {
				return service.SweepAxis{}, fmt.Errorf("axis %q: value %q is not a bool or number", s, v)
			}
		}
	}
	return service.SweepAxis{Name: name, Field: field, Values: vals}, nil
}

// printSweepJob renders a terminal job as text: the calibration
// trace, the sensitivity ranking, or the raw point table.
func printSweepJob(job service.SweepJob) error {
	if job.Status != "done" {
		return fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
	}
	res := job.Result
	switch {
	case res.Trace != "":
		fmt.Print(res.Trace)
	case res.Sensitivity != nil:
		s := res.Sensitivity
		fmt.Printf("baseline %s\n", s.BaselineLabel)
		if s.HasRef {
			fmt.Printf("baseline mean |CPI err| = %.2f%%\n", s.BaselineErr)
		}
		fmt.Printf("%-10s %-10s %10s %10s", "axis", "baseline", "mean|d|%", "max|d|%")
		if s.HasRef {
			fmt.Printf("  %-10s %8s", "best", "err%")
		}
		fmt.Println()
		for _, a := range s.Axes {
			fmt.Printf("%-10s %-10s %10.2f %10.2f", a.Axis, a.Baseline, a.MeanAbsPctDelta, a.MaxAbsPctDelta)
			if s.HasRef {
				fmt.Printf("  %-10s %8.2f", a.BestValue, a.BestErr)
			}
			fmt.Println()
		}
	default:
		fmt.Printf("%-40s %-10s %8s %8s\n", "point", "workload", "ipc", "cpi")
		for _, p := range res.Points {
			for _, c := range p.Cells {
				fmt.Printf("%-40s %-10s %8.3f %8.3f\n", p.Label, c.Workload, c.IPC, c.CPI)
			}
		}
	}
	fmt.Printf("points %d, cells %d, cache hits %d\n",
		res.Stats.Points, res.Stats.Cells, res.Stats.CacheHits)
	return nil
}
