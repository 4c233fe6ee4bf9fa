package main

import (
	"bytes"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"hswsim/internal/eprof"
	"hswsim/internal/exp"
	"hswsim/internal/expcache"
)

func TestMixDeterministicForSeed(t *testing.T) {
	gen := func(seed uint64) [][serveClients]request {
		g := newMixGen(seed)
		out := make([][serveClients]request, 2000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b, c := gen(42), gen(42), gen(43)
	kinds := map[reqKind]int{}
	shared, suite := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: same seed generated %v and %v", i, a[i], b[i])
		}
		for _, r := range a[i] {
			kinds[r.kind]++
			if r.suiteTuple() {
				suite++
			}
		}
		if a[i][0] == a[i][1] {
			shared++
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("seeds 42 and 43 generated %d of %d identical steps", same, len(a))
	}
	if kinds[kindRun] == 0 || kinds[kindTrace] == 0 || kinds[kindProfile] == 0 {
		t.Errorf("mix lacks a request kind: %v", kinds)
	}
	if shared == 0 || suite == 0 {
		t.Errorf("mix has %d shared steps and %d suite tuples, want both", shared, suite)
	}
}

func TestMixRequestsOnlyTheSmokeExperiments(t *testing.T) {
	g := newMixGen(7)
	ids := map[string]bool{}
	for _, id := range serveIDs {
		ids[id] = true
	}
	for i := 0; i < 2000; i++ {
		for _, r := range g.next() {
			if !ids[r.id] {
				t.Fatalf("step %d requests %s, not one of %v", i, r.id, serveIDs)
			}
			if r.kind == kindProfile && r.id != serveProfileID {
				t.Fatalf("step %d profiles %s, which simulates nothing", i, r.id)
			}
		}
	}
}

func TestParseAccessLog(t *testing.T) {
	key := strconv.Quote(expcache.TupleKey("tab3", exp.Options{Scale: 0.05, Seed: 7}, false))
	log := "t=2026-01-01T00:00:00Z req=a-000001 method=POST path=/v1/run status=200 bytes=10 wall_ms=12 outcome=live key=" + key + " queue_us=250 run_ms=11\n" +
		"t=2026-01-01T00:00:00Z req=a-000002 method=POST path=/v1/run status=200 bytes=10 wall_ms=0 outcome=cache-hit key=" + key + "\n" +
		"t=2026-01-01T00:00:00Z req=a-000003 method=GET path=/healthz status=200 bytes=3 wall_ms=0\n"
	got := parseAccessLog(log)
	want := []accessLine{
		{outcome: "live", queue: 250 * time.Microsecond, run: 11 * time.Millisecond, timed: true},
		{outcome: "cache-hit"},
		{},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d lines, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: %+v, want %+v", i+1, got[i], want[i])
		}
	}
}

func TestTailHonoursTenBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, beyond := tail(xs)
		if n <= minBeyond {
			if p != 100 || v != float64(n) || beyond != 0 {
				t.Fatalf("n=%d: (%v, %v, %d), want the maximum at p100", n, p, v, beyond)
			}
			continue
		}
		// xs[i] = i+1, so v leaves n-v samples beyond it.
		if got := n - int(v); got != minBeyond || beyond != minBeyond {
			t.Fatalf("n=%d: p%v = %v leaves %d beyond, reported %d, want %d", n, p, v, got, beyond, minBeyond)
		}
		// The percentile names v's rank, and the next rank up would
		// leave fewer than minBeyond beyond.
		if rank := int(math.Round(p / 100 * float64(n))); rank != int(v) {
			t.Fatalf("n=%d: p%v names rank %d, not %v", n, p, rank, v)
		}
	}
	if p, _, _ := tail(make([]float64, 1000)); p != 99 {
		t.Errorf("1000 samples: tail at p%v, want p99", p)
	}
}

func TestFoldMapsEveryInternalPackage(t *testing.T) {
	ents, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range shareLayers {
		known[l] = true
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		l, ok := packageLayer[e.Name()]
		if !ok {
			t.Errorf("package hswsim/internal/%s has no layer: add it to packageLayer", e.Name())
			continue
		}
		if l != "core" && !known[l] {
			t.Errorf("package %s maps to %q, which is not a cpu_share layer", e.Name(), l)
		}
	}
	if l, ok := hswsimLayer("hswsim/internal/brandnew.(*T).Run"); !ok || l != "other" {
		t.Errorf("unknown internal package folds to (%q, %v), want (other, true)", l, ok)
	}
}

func TestFoldSample(t *testing.T) {
	const (
		full   = "hswsim/internal/core.(*Socket).integrateFull"
		steady = "hswsim/internal/core.(*Socket).integrateSteady"
		run    = "hswsim/internal/core.(*System).Run"
	)
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"main.main", run, full, "runtime.duffcopy"}, "runtime.memmove"},
		{[]string{"main.main", run, full, "hswsim/internal/cache.(*Solver).SolveInto"}, "cache"},
		{[]string{"main.main", run, full}, "core.integrate_full"},
		{[]string{"main.main", run, steady, "hswsim/internal/core.(*Core).profileNow"}, "core.integrate_steady"},
		{[]string{"main.main", run}, "core.other"},
		{[]string{run, "hswsim/internal/power.(*PackageModel).Compute", "math.Exp"}, "power"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.scanobject"}, "runtime.gc"},
		{[]string{run, "runtime.mallocgc", "runtime.gcAssistAlloc", "runtime.memmove"}, "runtime.gc"},
		{[]string{run, "runtime.mapaccess2"}, "runtime.other"},
		{[]string{"net/http.(*conn).serve", "bufio.(*Reader).Read"}, "other"},
		{[]string{"hswsim/internal/exp.parallelMap[go.shape.int,go.shape.struct { a/b.c int }].func1"}, "exp"},
		{[]string{"hswsim/internal/slots.(*Pool).Sharded", "hswsim/internal/fleet.(*Fleet).StepNode"}, "fleet"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := foldSample(c.frames); got != c.want {
			t.Errorf("foldSample(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestCPUSharesSumToOne profiles real simulator work and checks that
// the fold accounts for every sampled nanosecond exactly once.
func TestCPUSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	parent, err := warmFleetParent()
	if err == nil {
		for start := time.Now(); time.Since(start) < 400*time.Millisecond && err == nil; {
			_, err = lifecycle(parent, refVariationSeed, 0, nil, 0)
		}
	}
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := eprof.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := newProfileFold()
	f.addProfile(p)
	if f.total == 0 {
		t.Skip("profile holds no samples")
	}
	sum := 0.0
	for l, v := range f.shares() {
		if v < 0 || v > 1 {
			t.Errorf("cpu_share.%s = %v", l, v)
		}
		sum += v
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
	var folded int64
	for _, l := range shareLayers {
		folded += f.byLayer[l]
	}
	if folded != f.total {
		t.Errorf("share layers hold %d of %d profiled ns: a sample folded outside shareLayers", folded, f.total)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "server", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "exp", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Layer: "exp", Start: 40 * ms, End: 60 * ms}, // overlaps span 2
		{ID: 4, Parent: 1, Layer: "expcache", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Layer: "slots", Start: 10 * ms, End: 20 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"server": 40 * ms, "exp": 30*ms + 20*ms, "expcache": 30 * ms, "slots": 10 * ms}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestClockProbeSamplesAndStops(t *testing.T) {
	p := startClockProbe()
	time.Sleep(10 * probeEvery)
	ns, n := p.stop()
	if n == 0 || ns <= 0 {
		t.Fatalf("clock probe: %d samples, median %v ns", n, ns)
	}
	// The probe has stopped: no sample arrives after stop returns.
	time.Sleep(3 * probeEvery)
	if len(p.ns) != n {
		t.Errorf("clock probe sampled after stop: %d samples, then %d", n, len(p.ns))
	}
}
