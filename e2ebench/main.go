// Command e2ebench is hswsim's end-to-end performance ledger: it runs
// one of three workloads against the simulator's public layers from a
// single process, times what a user waits for, checks every output it
// gets back, and — in a separate traced run — attributes the cost to
// layers.
//
//	e2ebench --workload suite|fleet|serve --seed N --seconds S --trace 0|1
//
// Workloads (see LEDGER.md for the layer → metric → workload map):
//
//   - suite: exp.RunSuite over all experiments in suite order, live,
//     scale 0.25. Rendered bytes must match golden.json.
//   - fleet: repeated fleet lifecycles (fleet.New, Step, Measure,
//     Release) of 64 nodes under an 85 W cap, variation seeds drawn
//     from the seed. NodeResult digests must repeat and match
//     golden.json for the reference seed.
//   - serve: an in-process hswsimd handler over loopback HTTP under a
//     closed loop of two clients sending a seeded, synthetic request
//     mix. Every 200 body for a tuple must be byte-identical however it
//     was served.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// print every metric by name with its unit. With --trace 0 the metrics
// are the end-to-end ones (set-up and round CPU time scaled to a
// reference clock, and peak RSS; the unscaled and wall-clock figures
// are printed before it), with --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
}

// workloads maps a workload name to its timed and traced runs and its
// set-up, which probe child processes perform to time it. The set-up
// returns the function that tears it down again.
var workloads = map[string]struct {
	timed  func(config, *report) error
	traced func(config, *report) error
	probe  func() (func() error, error)
}{
	"suite": {timedSuite, tracedSuite, probeSuite},
	"fleet": {timedFleet, tracedFleet, probeFleet},
	"serve": {timedServe, tracedServe, probeServe},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: suite, fleet or serve")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "seconds the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	probe := fs.String("probe-setup", "", "set up the named workload, print \"ready <cpu ns>\" and exit (set-up timing child)")
	writeGolden := fs.String("write-golden", "", "recompute the reference outputs and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden != "" {
		if err := writeGoldenFile(*writeGolden); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if *probe != "" {
		w, ok := workloads[*probe]
		if !ok {
			fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *probe)
			return 2
		}
		teardown, err := w.probe()
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready", processCPU().Nanoseconds())
		if err := teardown(); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: e2ebench --workload suite|fleet|serve --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := loadGolden(); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}
	rep := newReport(stdout)
	fmt.Fprintf(stdout, "e2ebench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, *seconds, *trace)
	run := w.timed
	if cfg.trace {
		run = w.traced
	}
	if err := run(cfg, rep); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	rep.finish(stderr)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
