package main

// The fleet workload: repeated lifecycles of a 64-node fleet under an
// 85 W package cap, forked from one warmed FIRESTARTER-at-turbo parent.
// A lifecycle (the op) is fleet.New (batch fork, variation, cap),
// Step, Measure and Release. It drives the fork path, the fork pool's
// reuse, steady-state power replay and the PCU memo, and bypasses the
// varying-kernel full-integration path.
//
// The seed draws the variation seeds; lifecycle i uses seed i mod 4 of
// the set, whose first member is the reference seed golden.json holds a
// digest for. Every lifecycle's NodeResult digest must equal the first
// one for its variation seed, the reference seed's must equal
// golden.json, and after the timed rounds a serially stepped lifecycle
// per variation seed must agree too.

import (
	"fmt"
	"time"

	"hswsim/internal/core"
	"hswsim/internal/fleet"
	"hswsim/internal/obs"
	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

const (
	fleetNodes = 64
	fleetCapW  = 85
	// fleetRoundOps is how many lifecycles make one round.
	fleetRoundOps = 10
	// refVariationSeed is the variation seed golden.json's digest is for.
	refVariationSeed = 0x5eed
)

// fleetStep and fleetWindow are the virtual time a lifecycle steps the
// fleet for, then measures it over.
const (
	fleetStep   = 20 * sim.Millisecond
	fleetWindow = 20 * sim.Millisecond
)

// warmFleetParent builds the default dual-socket node, loads every CPU
// with FIRESTARTER at turbo and lets transients decay.
func warmFleetParent() (*core.System, error) {
	sys, err := core.NewSystem(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if err := sys.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			return nil, err
		}
	}
	sys.RequestTurbo()
	sys.Run(20 * sim.Millisecond)
	return sys, nil
}

func probeFleet() (func() error, error) {
	_, err := warmFleetParent()
	return func() error { return nil }, err
}

// variationSeeds returns the four variation seeds a run cycles through.
func variationSeeds(seed uint64) []uint64 {
	out := []uint64{refVariationSeed}
	x := seed
	for len(out) < 4 {
		x += 0x9e3779b97f4a7c15 // splitmix64
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		out = append(out, z^z>>31)
	}
	return out
}

// lifecycle runs one fleet lifecycle and returns the digest of its
// measurement. workers is fleet.Config.Workers (0 = every slot, 1 =
// serial). With a recorder, each layer call gets a span under op.
func lifecycle(parent *core.System, vseed uint64, workers int, spans *spanRec, op int64) (string, error) {
	root, endRoot := spans.begin("fleet.lifecycle", "fleet", 0, op)
	defer endRoot()
	_, end := spans.begin("fleet.New", "fleet", root, op)
	fl, err := fleet.New(parent, fleet.Config{Nodes: fleetNodes, Seed: vseed, CapW: fleetCapW, Workers: workers})
	end()
	if err != nil {
		return "", err
	}
	_, end = spans.begin("fleet.Step", "fleet", root, op)
	fl.Step(fleetStep)
	end()
	_, end = spans.begin("fleet.Measure", "fleet", root, op)
	res := fl.Measure(0, fleetWindow)
	end()
	_, end = spans.begin("fleet.Release", "fleet", root, op)
	fl.Release()
	end()
	_, end = spans.begin("bench.digest", "bench", root, op)
	d := digestResults(res)
	end()
	return d, nil
}

// fleetRun is the state of one fleet workload run.
type fleetRun struct {
	parent  *core.System
	vseeds  []uint64
	digests map[uint64]string
	next    int
	latMS   []float64
}

func newFleetRun(seed uint64) (*fleetRun, error) {
	parent, err := warmFleetParent()
	if err != nil {
		return nil, err
	}
	return &fleetRun{parent: parent, vseeds: variationSeeds(seed), digests: map[uint64]string{}}, nil
}

// check compares a lifecycle digest with the first one for its seed
// and, for the reference seed, with golden.json.
func (f *fleetRun) check(vseed uint64, d string) error {
	if vseed == refVariationSeed && d != golden.Fleet.Digest {
		return fmt.Errorf("fleet seed %#x: digest %s, reference %s", vseed, d[:16], golden.Fleet.Digest[:16])
	}
	if first, ok := f.digests[vseed]; !ok {
		f.digests[vseed] = d
	} else if d != first {
		return fmt.Errorf("fleet seed %#x: digest %s differs from the seed's first lifecycle %s", vseed, d[:16], first[:16])
	}
	return nil
}

// round runs fleetRoundOps lifecycles, recording spans when spans is
// non-nil.
func (f *fleetRun) round(rep *report, spans *spanRec) {
	for i := 0; i < fleetRoundOps; i++ {
		vseed := f.vseeds[f.next%len(f.vseeds)]
		f.next++
		start := time.Now()
		d, err := lifecycle(f.parent, vseed, 0, spans, spans.newOp())
		f.latMS = append(f.latMS, float64(time.Since(start).Nanoseconds())/1e6)
		if err == nil {
			err = f.check(vseed, d)
		}
		rep.op(err)
	}
}

// verifySerial steps one lifecycle per variation seed serially and
// checks it against the parallel digests.
func (f *fleetRun) verifySerial(rep *report) {
	for _, vseed := range f.vseeds {
		d, err := lifecycle(f.parent, vseed, 1, nil, 0)
		if err == nil {
			err = f.check(vseed, d)
		}
		if err != nil {
			err = fmt.Errorf("serial reference: %w", err)
		}
		rep.op(err)
	}
}

func timedFleet(cfg config, rep *report) error {
	obs.Default().Reset()
	st, err := newSetupTimer("fleet")
	if err != nil {
		return err
	}
	f, err := newFleetRun(cfg.seed)
	if err != nil {
		return err
	}
	rounds, chainNS, err := runRounds(cfg.budget, func() error { f.round(rep, nil); return nil }, st.catchUp)
	if err != nil {
		return err
	}
	f.verifySerial(rep)
	return rep.addEndToEnd(st, rounds, chainNS, len(f.latMS), f.latMS, "lifecycle")
}

// tracedFleet alternates untraced and traced rounds over the budget, so
// the tracing overhead compares like with like.
func tracedFleet(cfg config, rep *report) error {
	obs.Default().Reset()
	t := newTracer()
	setupOp := t.spans.newOp()
	_, end := t.spans.begin("core.NewSystem+warm", "core", 0, setupOp)
	f, err := newFleetRun(cfg.seed)
	end()
	if err != nil {
		return err
	}
	var untraced, traced []float64
	deadline := time.Now().Add(cfg.budget)
	for len(traced) < 2 || time.Now().Before(deadline) {
		start := time.Now()
		f.round(rep, nil)
		untraced = append(untraced, time.Since(start).Seconds())
		if err := t.start(); err != nil {
			return err
		}
		start = time.Now()
		f.round(rep, t.spans)
		traced = append(traced, time.Since(start).Seconds())
		if err := t.stop(); err != nil {
			return err
		}
	}
	f.verifySerial(rep)
	fleetLayerNotes(rep, t.spans)
	return t.finishTrace(cfg, rep, median(untraced), median(traced))
}

// fleetLayerNotes reports the fleet layer's per-call costs from the
// traced spans.
func fleetLayerNotes(rep *report, spans *spanRec) {
	spans.mu.Lock()
	sum := map[string]time.Duration{}
	n := map[string]int{}
	for _, s := range spans.spans {
		sum[s.Name] += s.End - s.Start
		n[s.Name]++
	}
	spans.mu.Unlock()
	mean := func(name string) time.Duration {
		if n[name] == 0 {
			return 0
		}
		return sum[name] / time.Duration(n[name])
	}
	rep.note("fleet.new_ms", float64(mean("fleet.New").Nanoseconds())/1e6, "ms",
		fmt.Sprintf("ForkN of %d nodes, variation and cap, mean of %d", fleetNodes, n["fleet.New"]))
	nodeMS := float64(fleetNodes) * float64(fleetStep) / float64(sim.Millisecond)
	rep.note("fleet.step_us_per_node_ms", float64(mean("fleet.Step").Nanoseconds())/1e3/nodeMS, "us",
		"wall per node per virtual millisecond")
	rep.note("fleet.measure_ms", float64(mean("fleet.Measure").Nanoseconds())/1e6, "ms", "")
	rep.note("fleet.release_ms", float64(mean("fleet.Release").Nanoseconds())/1e6, "ms", "")
}
