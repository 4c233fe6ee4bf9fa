package core

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// forkFingerprint captures everything observable about a system at its
// current instant. Two systems that evolved identically must produce
// deeply equal fingerprints — floating-point state included, bit for
// bit (the values are compared with ==, not a tolerance).
type forkFingerprint struct {
	Now         sim.Time
	PkgJ        []float64
	DRAMJ       []float64
	PP0J        []float64
	TempC       []float64
	UncoreMHz   []uarch.MHz
	FreqMHz     []uarch.MHz
	Volts       []float64
	TSC         []uint64
	APERF       []uint64
	MPERF       []uint64
	Instr       []uint64
	Meter       string
	TraceRender string
	Spans       []trace.Span
	OpenSpans   []trace.Span
	SpanStats   [3]uint64 // recorded, span drops, event drops
	ACPower     float64
}

func fingerprint(t *testing.T, s *System) forkFingerprint {
	t.Helper()
	fp := forkFingerprint{Now: s.Now(), ACPower: s.ACPowerW()}
	for i := 0; i < s.Sockets(); i++ {
		sk := s.Socket(i)
		fp.PkgJ = append(fp.PkgJ, sk.RAPL.Pkg.EnergyJoules())
		fp.DRAMJ = append(fp.DRAMJ, sk.RAPL.DRAM.EnergyJoules())
		fp.PP0J = append(fp.PP0J, sk.RAPL.PP0.EnergyJoules())
		fp.TempC = append(fp.TempC, sk.Power.TempC())
		fp.UncoreMHz = append(fp.UncoreMHz, sk.UncoreMHz())
	}
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		c := s.Core(cpu)
		fp.FreqMHz = append(fp.FreqMHz, c.FreqMHz())
		fp.Volts = append(fp.Volts, c.Volts())
		snap := c.Snapshot()
		fp.TSC = append(fp.TSC, snap.TSC)
		fp.APERF = append(fp.APERF, snap.APERF)
		fp.MPERF = append(fp.MPERF, snap.MPERF)
		fp.Instr = append(fp.Instr, snap.Instructions)
	}
	for _, smp := range s.Meter().Samples() {
		// Exact float identity via the IEEE-754 bit pattern: any bit
		// difference between parent and child shows.
		fp.Meter += smp.At.String() + ":" + strconv.FormatUint(math.Float64bits(smp.W), 16) + " "
	}
	fp.TraceRender = s.Trace().Render(1 << 20)
	fp.Spans = s.Trace().Spans()
	fp.OpenSpans = s.Trace().Open(s.Now())
	fp.SpanStats = [3]uint64{
		s.Trace().SpansRecorded(), s.Trace().SpanDrops(), s.Trace().EventDrops(),
	}
	return fp
}

// forkScenario builds a warmed-up platform in a given state.
func forkScenario(t *testing.T, warm func(*System)) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Sockets = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTrace(4096)
	warm(sys)
	return sys
}

// checkForkBitwise forks sys, runs parent and child for d each, and
// requires deeply equal fingerprints.
func checkForkBitwise(t *testing.T, sys *System, d sim.Time) {
	t.Helper()
	child, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if got, want := child.Engine.Pending(), sys.Engine.Pending(); got != want {
		t.Fatalf("child has %d pending events, parent %d", got, want)
	}
	sys.Run(d)
	child.Run(d)
	a, b := fingerprint(t, sys), fingerprint(t, child)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fork diverged from parent after %v:\nparent: %+v\nchild:  %+v", d, a, b)
	}
}

func TestForkBitwiseIdenticalBusy(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < s.CPUs(); cpu++ {
			if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
				t.Fatal(err)
			}
		}
		s.RequestTurbo()
		s.Run(100 * sim.Millisecond)
	})
	checkForkBitwise(t, sys, 250*sim.Millisecond)
}

func TestForkBitwiseIdenticalMixed(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		// Half the cores busy on a memory-bound kernel, half idle; one
		// socket runs at a fixed setting, the other at turbo.
		for cpu := 0; cpu < s.CPUs(); cpu += 2 {
			if err := s.AssignKernel(cpu, workload.MemStream(), 1); err != nil {
				t.Fatal(err)
			}
		}
		half := s.CPUs() / 2
		for cpu := 0; cpu < half; cpu++ {
			if err := s.SetPState(cpu, 1600); err != nil {
				t.Fatal(err)
			}
		}
		for cpu := half; cpu < s.CPUs(); cpu++ {
			if err := s.SetPState(cpu, s.Spec().TurboSettingMHz()); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(73 * sim.Millisecond)
	})
	checkForkBitwise(t, sys, 200*sim.Millisecond)
}

func TestForkBitwiseIdenticalMidTransition(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
			t.Fatal(err)
		}
		s.Run(20 * sim.Millisecond)
		s.SetPStateAll(2000)
		// Step in small increments until a transition is in flight, so
		// the fork must carry a pending completion event.
		found := false
		for i := 0; i < 1000; i++ {
			s.Run(2 * sim.Microsecond)
			if _, inflight := s.Core(0).Domain().InFlight(); inflight {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("no in-flight transition to fork across")
		}
	})
	if !sys.Engine.IsPending(sys.Core(0).completeEv) {
		t.Fatal("expected a pending completion event at fork time")
	}
	checkForkBitwise(t, sys, 150*sim.Millisecond)
}

func TestForkChildIndependentOfParent(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		if err := s.AssignKernel(0, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
		s.Run(60 * sim.Millisecond)
	})
	child, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Drive the parent somewhere else entirely; the child must not care.
	sys.SetPStateAll(1200)
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if err := sys.AssignKernel(cpu, workload.MemStream(), 1); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run(300 * sim.Millisecond)

	// Reference: a second fork-equivalent — rebuild the same prefix and
	// run the child's schedule on it.
	ref := forkScenario(t, func(s *System) {
		if err := s.AssignKernel(0, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
		s.Run(60 * sim.Millisecond)
	})
	child.Run(200 * sim.Millisecond)
	ref.Run(200 * sim.Millisecond)
	a, b := fingerprint(t, child), fingerprint(t, ref)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("child (fork) diverged from fresh rebuild:\nchild: %+v\nref:   %+v", a, b)
	}
}

func TestForkRejectsForeignPendingEvents(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		s.Run(10 * sim.Millisecond)
	})
	sys.Engine.After(time1ms(), func(now sim.Time) {})
	if _, err := sys.Fork(); err == nil {
		t.Fatal("Fork accepted a foreign pending event")
	}
}

func time1ms() sim.Time { return sim.Millisecond }

func TestForkConcurrentSameResult(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < s.CPUs(); cpu++ {
			if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(50 * sim.Millisecond)
	})
	const n = 4
	fps := make([]forkFingerprint, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			child, err := sys.Fork()
			if err != nil {
				errs[i] = err
				return
			}
			child.Run(120 * sim.Millisecond)
			fps[i] = fingerprint(t, child)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		if i > 0 && !reflect.DeepEqual(fps[0], fps[i]) {
			t.Errorf("concurrent fork %d diverged from fork 0", i)
		}
	}
}

func TestForkGrandchildBitwise(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < s.CPUs(); cpu += 3 {
			if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
				t.Fatal(err)
			}
		}
		s.RequestTurbo()
		s.Run(60 * sim.Millisecond)
	})
	child, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	child.Run(80 * sim.Millisecond)
	grand, err := child.Fork()
	if err != nil {
		t.Fatalf("grandchild Fork: %v", err)
	}
	child.Run(150 * sim.Millisecond)
	grand.Run(150 * sim.Millisecond)
	a, b := fingerprint(t, child), fingerprint(t, grand)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("grandchild diverged from its parent fork:\nchild: %+v\ngrand: %+v", a, b)
	}
}

// scratchBackings records the address range of the backing array of
// every slice reachable through v's struct fields (pointers are not
// followed), keyed by field path; an empty slice records a zero range.
func scratchBackings(v reflect.Value, path string, out map[string][2]uintptr) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scratchBackings(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Slice:
		start := v.Pointer()
		out[path] = [2]uintptr{start, start + uintptr(v.Cap())*v.Type().Elem().Size()}
	}
}

// systemScratch collects the backings of a system's private,
// non-copy-on-write storage: its own and every socket's scratch, and
// the residency slabs.
func systemScratch(s *System) map[string][2]uintptr {
	out := map[string][2]uintptr{}
	scratchBackings(reflect.ValueOf(s.statesBuf), "System.statesBuf", out)
	for i, sk := range s.sockets {
		p := fmt.Sprintf("socket%d", i)
		scratchBackings(reflect.ValueOf(sk.socketScratch), p, out)
		scratchBackings(reflect.ValueOf(sk.residSlab), p+".residSlab", out)
	}
	return out
}

// checkOwnsScratch fails if any private scratch slice of child overlaps
// any of parent's.
func checkOwnsScratch(t *testing.T, when string, parent, child *System) {
	t.Helper()
	pb := systemScratch(parent)
	for cpath, c := range systemScratch(child) {
		for ppath, p := range pb {
			if c[0] < c[1] && p[0] < p[1] && c[0] < p[1] && p[0] < c[1] {
				t.Errorf("%s: child %s shares its backing array with parent %s", when, cpath, ppath)
			}
		}
	}
}

// TestForkChildOwnsScratch requires every fork child to start with
// scratch storage of its own: none of its private integration buffers,
// memos or residency bins may alias the parent's, before or after
// either side runs a full segment, and a child must still evolve
// exactly like its parent.
func TestForkChildOwnsScratch(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < s.CPUs(); cpu += 3 {
			k := workload.MemStream()
			if cpu%2 == 0 {
				k = workload.Firestarter()
			}
			if err := s.AssignKernel(cpu, k, 1); err != nil {
				t.Fatal(err)
			}
		}
		s.EnableEnergyProfile("scratch")
		s.Run(20 * sim.Millisecond)
	})
	// The check is only as strong as the parent's scratch is populated.
	for path, r := range systemScratch(sys) {
		if r[0] == r[1] {
			t.Fatalf("parent %s is empty; the scenario must populate every scratch slice", path)
		}
	}
	child, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	batch, err := sys.ForkN(2)
	if err != nil {
		t.Fatalf("ForkN: %v", err)
	}
	children := append([]*System{child}, batch...)
	for i, c := range children {
		checkOwnsScratch(t, fmt.Sprintf("child %d after fork", i), sys, c)
	}

	// Each side first continues unchanged, through grid ticks that read
	// the telemetry cache, then takes a new operating point, which
	// forces a full segment that rewrites the parent's scratch in place
	// before any child has run.
	step := func(s *System) {
		s.Run(2 * sim.Millisecond)
		s.SetPStateAll(s.Spec().MinMHz)
		s.Run(5 * sim.Millisecond)
	}
	step(sys)
	for i, c := range children {
		checkOwnsScratch(t, fmt.Sprintf("child %d after the parent's full segment", i), sys, c)
	}
	want := fingerprint(t, sys)
	for i, c := range children {
		step(c)
		checkOwnsScratch(t, fmt.Sprintf("child %d after its own full segment", i), sys, c)
		if got := fingerprint(t, c); !reflect.DeepEqual(got, want) {
			t.Errorf("child %d diverged from its parent:\nchild:  %+v\nparent: %+v", i, got, want)
		}
	}
}

// TestForkConcurrentStress forks one parent from many goroutines at
// once; every child must run to the same result as a reference child.
func TestForkConcurrentStress(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < s.CPUs(); cpu += 4 {
			if err := s.AssignKernel(cpu, workload.MemStream(), 1); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(30 * sim.Millisecond)
	})
	// Exact-bits digest of the observable state, cheap enough to compute
	// once per iteration.
	digest := func(s *System) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%x", math.Float64bits(s.ACPowerW()))
		for i := 0; i < s.Sockets(); i++ {
			sk := s.Socket(i)
			fmt.Fprintf(&b, ":%x:%x",
				math.Float64bits(sk.RAPL.Pkg.EnergyJoules()),
				math.Float64bits(sk.Power.TempC()))
		}
		for cpu := 0; cpu < s.CPUs(); cpu++ {
			sn := s.Core(cpu).Snapshot()
			fmt.Fprintf(&b, ":%d:%d:%d", sn.TSC, sn.APERF, sn.MPERF)
		}
		fmt.Fprintf(&b, ":%d", s.Trace().SpansRecorded())
		return b.String()
	}
	ref, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	ref.Run(5 * sim.Millisecond)
	want := digest(ref)

	const workers = 8
	const iters = 6
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < iters; i++ {
				child, err := sys.Fork()
				if err != nil {
					errc <- err
					return
				}
				child.Run(5 * sim.Millisecond)
				if got := digest(child); got != want {
					errc <- fmt.Errorf("iteration %d: child diverged:\ngot  %s\nwant %s", i, got, want)
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
