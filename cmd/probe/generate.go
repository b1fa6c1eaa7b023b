// The workload-generation subcommand: POST a workgen spec (or a whole
// family) at the service and print what was minted. The flags mirror
// the Spec axes one-to-one; -family/-axis/-levels switches to family
// mode, sweeping one axis of the base spec across the given levels.
package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/service"
	"repro/internal/workgen"
)

func cmdGenerate(ctx context.Context, c *service.Client, args []string) error {
	fs := flag.NewFlagSet("workloads generate", flag.ExitOnError)
	spec := workgen.DefaultSpec()
	fs.Uint64Var(&spec.Seed, "seed", spec.Seed, "generation seed")
	fs.Int64Var(&spec.Iters, "iters", spec.Iters, "loop iterations")
	fs.IntVar(&spec.BranchEntropy, "branch-entropy", spec.BranchEntropy, "taken probability of random branch sites, percent")
	fs.IntVar(&spec.BranchPeriod, "branch-period", spec.BranchPeriod, "period of patterned branch sites")
	fs.IntVar(&spec.WorkingSetKB, "working-set", spec.WorkingSetKB, "streamed working set, KB")
	fs.IntVar(&spec.ChaseDepth, "chase-depth", spec.ChaseDepth, "dependent pointer-chase hops per iteration")
	fs.IntVar(&spec.ILPWidth, "ilp", spec.ILPWidth, "independent ALU chains")
	fs.IntVar(&spec.ConflictWays, "conflict-ways", spec.ConflictWays, "conflicting cache blocks cycled per iteration (0 = off)")
	fs.IntVar(&spec.ConflictStrideKB, "conflict-stride", spec.ConflictStrideKB, "stride between conflicting blocks, KB")
	fs.IntVar(&spec.ConflictDensity, "conflict-density", spec.ConflictDensity, "conflict rounds per iteration")
	fs.IntVar(&spec.TrapDensity, "trap-density", spec.TrapDensity, "serializing traps per iteration")
	family := fs.String("family", "", "mint a family with this name instead of a single spec")
	axis := fs.String("axis", "", "family axis (one of: "+strings.Join(workgen.AxisNames(), ", ")+")")
	levels := fs.String("levels", "", "comma-separated family levels for the axis")
	asJSON := fs.Bool("json", false, "print the raw JSON mint response")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("workloads generate: unexpected arguments %v", fs.Args())
	}

	var req service.GenerateRequest
	switch {
	case *family == "" && (*axis != "" || *levels != ""):
		return fmt.Errorf("workloads generate: -axis and -levels require -family")
	case *family == "":
		req.Spec = &spec
	default:
		var lv []int
		for _, s := range strings.Split(*levels, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("workloads generate: level %q: %w", s, err)
			}
			lv = append(lv, n)
		}
		req.Family = &workgen.Family{Name: *family, Base: spec, Axis: *axis, Levels: lv}
	}
	resp, err := c.Generate(ctx, req)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(resp)
	}
	for _, w := range resp.Workloads {
		status := "minted"
		if !w.Minted {
			status = "exists"
		}
		if w.Family != "" {
			fmt.Printf("%-40s %-8s %s %s=%d\n", w.Name, status, w.Family, w.Axis, w.Level)
		} else {
			fmt.Printf("%-40s %-8s\n", w.Name, status)
		}
	}
	return nil
}
