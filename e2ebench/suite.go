package main

// The suite workload: exp.RunSuite over every experiment, live with no
// cache, at scale 0.25 on the process's compute slots — what
// `experiments -run all -scale 0.25 -no-cache` makes a user wait for.
// An op is one experiment; a round is one pass over all of them, in
// suite order. The suite's input is that fixed command, so the seed
// changes nothing here: every pass is checked against golden.json.

import (
	"fmt"
	"sort"
	"time"

	"hswsim/internal/core"
	"hswsim/internal/exp"
	"hswsim/internal/obs"
	"hswsim/internal/slots"
)

// suiteOpts are the options every suite pass runs with: scale 0.25 and
// the command line's default seed.
var suiteOpts = exp.Options{Scale: 0.25, Seed: exp.Defaults().Seed}

// suiteIDs returns every experiment id in suite order, the order
// `experiments -run all` requests them in.
func suiteIDs() []string {
	var ids []string
	for _, d := range exp.Suite() {
		ids = append(ids, d.ID)
	}
	return ids
}

// probeSuite is the suite's set-up as a fresh process pays it: the
// runtime and package initialisation, then the first platform build.
func probeSuite() (func() error, error) {
	_, err := core.NewSystem(core.DefaultConfig())
	return func() error { return nil }, err
}

// suitePass runs one pass and checks every output, returning its wall
// time and the experiments' reported elapsed times.
func suitePass(rep *report, ids []string) (time.Duration, map[string]time.Duration) {
	elapsed := map[string]time.Duration{}
	start := time.Now()
	exp.RunSuite(ids, suiteOpts, false, nil, func(r exp.SuiteResult) {
		elapsed[r.ID] = r.Elapsed
		if r.Err != nil {
			rep.op(fmt.Errorf("%s: %w", r.ID, r.Err))
			return
		}
		rep.op(checkExperiment(r.ID, r.Output))
	})
	return time.Since(start), elapsed
}

func timedSuite(cfg config, rep *report) error {
	obs.Default().Reset()
	st, err := newSetupTimer("suite")
	if err != nil {
		return err
	}
	ids := suiteIDs()
	rounds, chainNS, err := runRounds(cfg.budget, func() error {
		suitePass(rep, ids)
		return nil
	}, st.catchUp)
	if err != nil {
		return err
	}
	return rep.addEndToEnd(st, rounds, chainNS, len(rounds)*len(ids), nil, "")
}

// tracedSuite runs one untraced pass for reference, then under the
// tracer a pass with the harness's wall spans on (per-experiment queue
// wait) and a serial pass that holds a slot and calls exp.RunLive for
// each experiment (run and CPU time, never counting queue wait).
func tracedSuite(cfg config, rep *report) error {
	obs.Default().Reset()
	ids := suiteIDs()
	untraced, _ := suitePass(rep, ids)

	t := newTracer()
	if err := t.start(); err != nil {
		return err
	}
	op := t.spans.newOp()
	passID, endPass := t.spans.begin("exp.RunSuite", "exp", 0, op)
	before := time.Now()
	hc := exp.EnableHarnessSpans(1 << 16)
	traced, elapsed := suitePass(rep, ids)
	exp.DisableHarnessSpans()
	endPass()
	queue := map[string]time.Duration{}
	expSpan := map[string]int64{}
	type interval struct{ start, end time.Time }
	slot := map[string]interval{}
	for _, s := range hc.Spans() {
		iv := interval{before.Add(s.Start), before.Add(s.End)}
		switch {
		case s.Cat == "experiment":
			expSpan[s.Name] = t.spans.add("exp.experiment "+s.Name, "exp", passID, op, iv.start, iv.end)
			if sl, ok := slot[s.Name]; ok {
				queue[s.Name] = sl.start.Sub(iv.start)
				t.spans.add("slots.wait "+s.Name, "slots", expSpan[s.Name], op, iv.start, sl.start)
				t.spans.add("exp.RunLive "+s.Name, "exp", expSpan[s.Name], op, sl.start, sl.end)
			}
		case s.Cat == "slot" && s.Name != "helper":
			slot[s.Name] = iv // closes before its experiment span
		}
	}
	if d := hc.Drops(); d > 0 {
		return fmt.Errorf("harness span collector dropped %d spans", d)
	}

	run := map[string]time.Duration{}
	cpu := map[string]time.Duration{}
	slots.Default().Acquire()
	serialOp := t.spans.newOp()
	serialID, endSerial := t.spans.begin("suite.serial", "exp", 0, serialOp)
	for _, id := range ids {
		_, end := t.spans.begin("exp.RunLive "+id, "exp", serialID, serialOp)
		c0, w0 := processCPU(), time.Now()
		out, err := exp.RunLive(id, suiteOpts, false)
		run[id], cpu[id] = time.Since(w0), processCPU()-c0
		end()
		if err == nil {
			err = checkExperiment(id, out)
		}
		rep.op(err)
	}
	endSerial()
	slots.Default().Release()
	if err := t.stop(); err != nil {
		return err
	}

	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	var elapsedSum, queueSum time.Duration
	for _, id := range sorted {
		rep.note("exp."+id+".run_s", run[id].Seconds(), "s", "serial RunLive on a held slot")
		rep.note("exp."+id+".queue_s", queue[id].Seconds(), "s", "slot wait inside RunSuite")
		rep.note("exp."+id+".cpu_s", cpu[id].Seconds(), "s", "process CPU during its RunLive")
		elapsedSum += elapsed[id]
		queueSum += queue[id]
	}
	rep.note("exp.elapsed_sum_s", elapsedSum.Seconds(), "s",
		fmt.Sprintf("SuiteResult.Elapsed summed, queue wait included, against a %.3g s pass", traced.Seconds()))
	rep.note("exp.queue_sum_s", queueSum.Seconds(), "s", "slot wait summed over experiments")
	return t.finishTrace(cfg, rep, untraced.Seconds(), traced.Seconds())
}
