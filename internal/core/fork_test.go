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

func TestForkReleaseReuse(t *testing.T) {
	warm := func(s *System) {
		if err := s.AssignKernel(0, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
		s.Run(40 * sim.Millisecond)
	}
	sys := forkScenario(t, warm)

	// Reference: a never-released child.
	ref, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	ref.Run(120 * sim.Millisecond)
	want := fingerprint(t, ref)

	// Release a child, then fork again: the free list is deterministic
	// (mutex-guarded slice, not sync.Pool), so the released storage MUST
	// come back — and the recycled child must evolve identically.
	c1, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	c1.Release()
	c2, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if c2 != c1 {
		t.Fatal("fork after Release did not reuse the released child's storage")
	}
	c2.Run(120 * sim.Millisecond)
	if got := fingerprint(t, c2); !reflect.DeepEqual(got, want) {
		t.Errorf("reused child diverged from a fresh child:\nreused: %+v\nfresh:  %+v", got, want)
	}

	// Release on a root system is a no-op: roots are not poolable.
	c2.Release()
	sys.Release()
	if got := len(sys.pool.free); got != 1 {
		t.Fatalf("pool holds %d systems after root Release, want 1 (the child only)", got)
	}
}

// TestForkReuseAfterReassign recycles a child that ran different
// kernels on the same active cores: the recycled child's harvested
// load entries hold those kernels' profiles, and must not leak into
// the next fork's first segment.
func TestForkReuseAfterReassign(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < 12; cpu++ {
			if err := s.AssignKernel(cpu, workload.Firestarter(), 1); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(20 * sim.Millisecond)
	})
	c1, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	for cpu := 0; cpu < 12; cpu++ {
		if err := c1.AssignKernel(cpu, workload.Memory(), 1); err != nil {
			t.Fatal(err)
		}
	}
	c1.Run(5 * sim.Millisecond)
	c1.Release()
	reused, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if reused != c1 {
		t.Fatal("fork after Release did not reuse the released child's storage")
	}
	fresh, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	reused.Run(5 * sim.Millisecond)
	fresh.Run(5 * sim.Millisecond)
	if got, want := fingerprint(t, reused), fingerprint(t, fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("reused child diverged from a fresh child:\nreused: %+v\nfresh:  %+v", got, want)
	}
}

func TestForkReleaseConcurrentStress(t *testing.T) {
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
				child.Release()
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
