// Calibration: replay the paper's central exercise — tuning the
// unvalidated sim-initial simulator toward the native DS-10L — as an
// automated coordinate descent over the modeling-bug design space.
//
// Every catalogued sim-initial bug becomes a boolean axis; the
// descent repeatedly flips whichever axis most reduces the mean
// |CPI error| against the reference machine across the 21
// microbenchmarks, and the accepted moves form a convergence trace:
// the sim-initial → sim-alpha tuning journey, reproduced from the
// error signal alone.
//
// The walkthrough then reruns the identical descent to show the
// content-addressed cache at work: the second pass re-simulates
// nothing, and its trace is byte-identical to the first.
//
// This is an in-module example, so it drives internal/sweep directly;
// the same exploration is served over HTTP by POST /v1/sweep
// (analysis "calibration") and by `probe sweep -analysis calibration`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/microbench"
	"repro/internal/model"
	"repro/internal/simcache"
	"repro/internal/sweep"
)

func main() {
	limit := flag.Uint64("limit", 8_000, "dynamic instructions per cell (0 = full workload length)")
	rounds := flag.Int("rounds", 0, "coordinate-descent round bound (0 = default)")
	flag.Parse()
	ctx := context.Background()

	// The design space: sim-initial's bug catalogue, one boolean axis
	// per modeling bug, over the sim-initial base configuration. The
	// origin point (every bug enabled) IS sim-initial.
	space := sweep.SimInitialBugSpace()
	fmt.Printf("design space: %d axes, %d points\n", len(space.Axes), space.Size())

	// The engine: the 21 microbenchmarks per point, each capped at the
	// budget and memoized through a content-addressed cache shared by
	// both descents below.
	suite := microbench.Suite()
	for i, w := range suite {
		suite[i] = w.Capped(*limit)
	}
	eng := &sweep.Engine{
		Workloads: suite,
		Cache:     simcache.New(4096),
	}

	// The reference: the native DS-10L measured through the DCPI
	// profiler emulation — the machine the paper calibrated against.
	ref, err := eng.Reference(ctx, model.DefaultNativeConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== first descent (cold cache) ==")
	cal, err := sweep.Calibrate(ctx, eng, space, nil, ref, *rounds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cal.Trace())
	fmt.Printf("cells %d, cache hits %d (%.0f%%)\n",
		cal.Stats.Cells, cal.Stats.CacheHits, 100*cal.Stats.HitRate())

	// The bugs the descent kept enabled are as interesting as the ones
	// it fixed: a "bug" that helps match the reference is modeling a
	// real property of the hardware (the paper's trap-granularity
	// observation).
	var kept []string
	for i, a := range space.Axes {
		if cal.Final[i] == 0 { // first value = bug enabled
			kept = append(kept, a.Name)
		}
	}
	if len(kept) > 0 {
		fmt.Printf("bugs still enabled at convergence: %s\n", strings.Join(kept, ", "))
		fmt.Println("(these \"bugs\" match the reference better than their fixes do)")
	}

	fmt.Println("\n== second descent (warm cache) ==")
	again, err := sweep.Calibrate(ctx, eng, space, nil, ref, *rounds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cells %d, cache hits %d (%.0f%%)\n",
		again.Stats.Cells, again.Stats.CacheHits, 100*again.Stats.HitRate())
	if again.Trace() == cal.Trace() {
		fmt.Println("trace is byte-identical to the first descent")
	} else {
		log.Fatal("determinism violation: warm-cache trace differs")
	}
}
