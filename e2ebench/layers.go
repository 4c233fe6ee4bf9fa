package main

// Per-layer attribution for the traced run: the CPU profile folded into
// the repository's layers, obs counter deltas, and the per-layer
// metrics every workload reports.

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"

	"hswsim/internal/eprof"
	"hswsim/internal/obs"
)

// packageLayer maps each hswsim/internal package to its layer. A
// package missing here folds into "other", so a new package shows up
// there until it is placed.
var packageLayer = map[string]string{
	"exp": "exp", "report": "exp", "stats": "exp", "governor": "exp", "sched": "exp",
	"slots": "slots",
	"sim":   "sim",
	"core":  "core", "cow": "core", "msr": "core", "perfctr": "core", "acpi": "core", "uarch": "core", "ring": "core",
	"power": "power", "fivr": "power",
	"pcu": "pcu", "pstate": "pcu", "cstate": "pcu", "rapl": "pcu",
	"cache": "cache", "mem": "cache",
	"workload": "workload",
	"fleet":    "fleet",
	"expcache": "expcache",
	"server":   "server",
	"obs":      "obs", "trace": "obs", "eprof": "obs",
}

// shareLayers are the cpu_share.* buckets, in report order. Every
// profile sample lands in exactly one of them.
var shareLayers = []string{
	"exp", "slots", "sim",
	"core.integrate_full", "core.integrate_steady", "core.other",
	"power", "pcu", "cache", "workload", "fleet", "expcache", "server", "obs",
	"runtime.gc", "runtime.memmove", "runtime.other", "other",
}

const (
	integrateFullFn   = "hswsim/internal/core.(*Socket).integrateFull"
	integrateSteadyFn = "hswsim/internal/core.(*Socket).integrateSteady"
)

// funcPackage returns the import path of a profiled function's package.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic type arguments, which may hold '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// hswsimLayer returns the layer of a function in an hswsim package, and
// false for functions outside the module.
func hswsimLayer(fn string) (string, bool) {
	pkg := funcPackage(fn)
	rest, ok := strings.CutPrefix(pkg, "hswsim/internal/")
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(rest, "/")
	if l, ok := packageLayer[name]; ok {
		return l, true
	}
	return "other", true
}

func isRuntime(fn string) bool {
	pkg := funcPackage(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// isGC reports whether a frame belongs to the garbage collector
// (background marking, assists, sweeping, scavenging, write barriers).
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.scanstack", "runtime.scanblock",
		"runtime.greyobject", "runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
		"runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.(*scavengerState)"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isCopy reports whether a runtime leaf frame is a memory copy or
// clear (struct copies, slice copies, zeroing).
func isCopy(fn string) bool {
	switch fn {
	case "runtime.memmove", "runtime.duffcopy", "runtime.memclrNoHeapPointers", "runtime.duffzero",
		"runtime.typedmemmove", "runtime.memclrHasPointers", "runtime.typedslicecopy":
		return true
	}
	return false
}

// foldSample assigns one profile sample, frames root first, to a share
// layer. Runtime leaves go to runtime.gc when any frame is the
// collector, runtime.memmove for copies and runtime.other otherwise.
// Any other leaf is charged to the innermost hswsim frame's layer, so
// standard-library code counts for the layer that called it; core
// splits by whether that frame runs under integrateFull or
// integrateSteady. Samples with no hswsim frame are "other".
func foldSample(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[len(frames)-1]
	if isRuntime(leaf) {
		for _, f := range frames {
			if isGC(f) {
				return "runtime.gc"
			}
		}
		if isCopy(leaf) {
			return "runtime.memmove"
		}
		return "runtime.other"
	}
	for i := len(frames) - 1; i >= 0; i-- {
		l, ok := hswsimLayer(frames[i])
		if !ok {
			continue
		}
		if l != "core" {
			return l
		}
		for j := i; j >= 0; j-- {
			switch frames[j] {
			case integrateFullFn:
				return "core.integrate_full"
			case integrateSteadyFn:
				return "core.integrate_steady"
			}
		}
		return "core.other"
	}
	return "other"
}

// profileFold accumulates CPU-profile weight per share layer, plus the
// cumulative weight under each integrate path.
type profileFold struct {
	byLayer        map[string]int64
	total          int64
	cumFull, cumSt int64
}

func newProfileFold() *profileFold { return &profileFold{byLayer: map[string]int64{}} }

// addProfile folds a decoded CPU profile, weighting each sample by its
// CPU nanoseconds.
func (f *profileFold) addProfile(p *eprof.ParsedProfile) {
	col := len(p.SampleTypes) - 1
	for i, t := range p.SampleTypes {
		if t == "cpu" {
			col = i
		}
	}
	for _, s := range p.Samples {
		if col < 0 || col >= len(s.Values) {
			continue
		}
		w := s.Values[col]
		f.byLayer[foldSample(s.Frames)] += w
		f.total += w
		for _, fr := range s.Frames {
			if fr == integrateFullFn {
				f.cumFull += w
				break
			}
		}
		for _, fr := range s.Frames {
			if fr == integrateSteadyFn {
				f.cumSt += w
				break
			}
		}
	}
}

// shares returns each share layer's fraction of the profiled CPU.
func (f *profileFold) shares() map[string]float64 {
	out := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		if f.total > 0 {
			out[l] = float64(f.byLayer[l]) / float64(f.total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// obsReading flattens the obs registry: counters and gauges by name
// (plus labels), histograms as <name>_sum and <name>_count.
type obsReading map[string]int64

func readObs() obsReading {
	out := obsReading{}
	for _, m := range obs.Snapshot() {
		key := m.Name
		for k, v := range m.Labels {
			key += "{" + k + "=" + v + "}"
		}
		if m.Kind == "histogram" {
			out[key+"_sum"] = m.Sum
			out[key+"_count"] = m.Count
			continue
		}
		out[key] = m.Value
	}
	return out
}

// tracer brackets the traced segments of a run: while a segment runs,
// the CPU profiler is on and obs counters and resource use are
// differenced. Spans are recorded by the workload code through spans.
type tracer struct {
	spans   *spanRec
	fold    *profileFold
	counts  obsReading // summed obs deltas over the segments
	use     delta      // summed resource use over the segments
	buf     bytes.Buffer
	obsPrev obsReading
	usePrev usage
}

func newTracer() *tracer {
	return &tracer{spans: newSpanRec(), fold: newProfileFold(), counts: obsReading{}}
}

// start begins a traced segment.
func (t *tracer) start() error {
	t.buf.Reset()
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.obsPrev = readObs()
	t.usePrev = readUsage()
	return nil
}

// stop ends a traced segment and folds its profile and counters in.
func (t *tracer) stop() error {
	d := t.usePrev.to(readUsage())
	after := readObs()
	pprof.StopCPUProfile()
	t.use.add(d)
	for k, v := range after {
		t.counts[k] += v - t.obsPrev[k]
	}
	p, err := eprof.Parse(&t.buf)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.fold.addProfile(p)
	return nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addLayerMetrics records the per-layer metrics every workload
// reports, and prints the slot wait that only some workloads incur.
func (t *tracer) addLayerMetrics(rep *report) error {
	sh := t.fold.shares()
	sum := 0.0
	for _, l := range shareLayers {
		rep.add("cpu_share."+l, sh[l], "share")
		sum += sh[l]
	}
	if t.fold.total == 0 || sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("cpu shares sum to %g over %d ns of profile, want 1", sum, t.fold.total)
	}
	rep.note("cpu_share.profiled_s", float64(t.fold.total)/1e9, "s", "base of cpu_share.*")
	rep.add("cum_share.core.integrate_full", ratio(float64(t.fold.cumFull), float64(t.fold.total)), "share")
	rep.add("cum_share.core.integrate_steady", ratio(float64(t.fold.cumSt), float64(t.fold.total)), "share")

	c := t.counts
	events := float64(c["sim_events_dispatched_total"])
	rep.add("sim.events", events, "count")
	rep.add("sim.cpu_ns_per_event", ratio(float64(t.use.cpu.Nanoseconds()), events), "ns")
	full, replayed := float64(c["power_segments_full_total"]), float64(c["power_segments_replayed_total"])
	rep.add("power.segments_full", full, "count")
	rep.add("power.segments_replayed", replayed, "count")
	rep.add("power.replay_ratio", ratio(replayed, full+replayed), "1")
	rep.note("power.segments", full+replayed, "count", "base of power.replay_ratio")
	forks := float64(c["sim_forks_total"])
	rep.add("core.fork_us", ratio(float64(c["core_fork_wall_ns_sum"])/1e3, forks), "us")
	rep.add("core.fork_reuse_ratio", ratio(float64(c["core_fork_child_reuse_total"]), forks), "1")
	rep.note("core.forks", forks, "count", "base of core.fork_us and core.fork_reuse_ratio")
	rep.add("runtime.gc_cycles", float64(t.use.gcs), "count")
	rep.add("runtime.gc_pause_ms", float64(t.use.pauseNS)/1e6, "ms")
	rep.add("runtime.alloc_mb", float64(t.use.allocB)/(1<<20), "MiB")
	hits, misses := float64(c["expcache_hits_total"]), float64(c["expcache_misses_total"])
	rep.add("expcache.hit_ratio", ratio(hits, hits+misses), "1")
	rep.note("expcache.gets", hits+misses, "count", "base of expcache.hit_ratio")
	rep.add("server.coalesced", float64(c["server_coalesced_total"]), "count")
	rep.note("slots.wait_ms", float64(c["sched_slot_wait_ns_total"])/1e6, "ms",
		fmt.Sprintf("%d contended of %d slot acquires", c["sched_slot_wait_ns_count"], c["sched_slot_acquires_total"]))
	return nil
}

// finishTrace writes the spans and the layer metrics, and the tracing
// overhead: traced minus untraced median wall time of the same work.
func (t *tracer) finishTrace(cfg config, rep *report, untracedWallS, tracedWallS float64) error {
	if err := t.addLayerMetrics(rep); err != nil {
		return err
	}
	rep.note("trace.overhead_s", tracedWallS-untracedWallS, "s",
		fmt.Sprintf("traced %.4g s vs untraced %.4g s per round", tracedWallS, untracedWallS))
	return t.spans.finish(cfg, rep)
}
