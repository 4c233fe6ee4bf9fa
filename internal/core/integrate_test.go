package core

import (
	"fmt"
	"strings"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// integrateFingerprint runs a mixed scenario (steady phases, p-state
// changes, c-state transitions, a cross-core wake, phase-varying
// kernels) and renders every observable output — RAPL counters, core
// performance counters, die temperature, AC power, meter samples — with
// bit-exact float formatting. LINPACK runs on four cores of socket 0
// from one start time (one shared profile evaluation) past several of
// its phase edges, and loses its sharing leader midway, beside a Phased
// kernel whose AVX use flips at each edge; mprime and a Phased kernel
// share evaluations on socket 1. A last phase runs LINPACK on all
// twelve cores of socket 1, turbo-limited by TDP, into its first
// DRAM-bound panel phase, so the cache solver both keeps unchanged
// cores' results and copies a neighbour's, and the copy is wrong
// across a hop-class boundary. Core residency is read for every CPU
// after resets taken in mid-window.
func integrateFingerprint(t *testing.T) string {
	t.Helper()
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		t.Helper()
		if e != nil {
			t.Fatal(e)
		}
	}
	must(sys.AssignKernel(0, workload.Firestarter(), 2))
	must(sys.AssignKernel(1, workload.Compute(), 1))
	must(sys.AssignKernel(13, workload.Memory(), 2))
	must(sys.AssignKernel(14, workload.Sinus(40*sim.Millisecond), 1))
	for cpu := 2; cpu <= 5; cpu++ {
		must(sys.AssignKernel(cpu, workload.Linpack(), 2))
	}
	phased := &workload.Phased{
		Label:      "phased",
		A:          workload.ProfileOf(workload.Compute(), 0),
		B:          workload.ProfileOf(workload.Memory(), 0),
		HalfPeriod: 7 * sim.Millisecond,
	}
	for cpu := 15; cpu <= 17; cpu++ {
		must(sys.AssignKernel(cpu, workload.Mprime(), 1))
	}
	must(sys.AssignKernel(18, phased, 1))
	must(sys.AssignKernel(19, phased, 2))
	// AVX use flips at each of this kernel's edges.
	must(sys.AssignKernel(6, &workload.Phased{
		Label:      "avx phased",
		A:          workload.ProfileOf(workload.Compute(), 0),
		B:          workload.ProfileOf(workload.DGEMM(), 0),
		HalfPeriod: 5300 * sim.Microsecond,
	}, 1))
	sys.Run(120 * sim.Millisecond)
	sys.ResetResidency(0)
	sys.ResetResidency(15)
	sys.SetPState(0, 1800)
	sys.SetPState(13, 1200)
	sys.Run(80 * sim.Millisecond)
	must(sys.AssignKernel(2, nil, 1))
	must(sys.AssignKernel(1, nil, 1))
	must(sys.SleepCore(1, cstate.C6))
	sys.Run(60 * sim.Millisecond)
	if _, err := sys.WakeCore(0, 1, workload.Sqrt()); err != nil {
		t.Fatal(err)
	}
	sys.Run(140 * sim.Millisecond)
	sys.ResetResidency(3)
	for cpu := 12; cpu < 24; cpu++ {
		must(sys.AssignKernel(cpu, workload.Linpack(), 2))
	}
	sys.Run(200 * sim.Millisecond)

	var b strings.Builder
	for i := 0; i < sys.Sockets(); i++ {
		r, err := sys.ReadRAPL(i)
		must(err)
		fmt.Fprintf(&b, "socket%d rapl pkg=%d dram=%d pcustate=%v temp=%x\n",
			i, r.Pkg, r.DRAM, sys.Socket(i).PkgCState(), sys.Socket(i).Power.TempC())
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		s := sys.Core(cpu).Snapshot()
		fmt.Fprintf(&b, "cpu%d tsc=%d aperf=%d mperf=%d inst=%d f=%v\n",
			cpu, s.TSC, s.APERF, s.MPERF, s.Instructions, sys.CoreFreqMHz(cpu))
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		r := sys.CoreResidency(cpu)
		pst := map[uarch.MHz]int64{}
		for f, d := range r.PState {
			pst[f] = int64(d)
		}
		cst := map[cstate.State]int64{}
		for st, d := range r.CState {
			cst[st] = int64(d)
		}
		fmt.Fprintf(&b, "cpu%d residency %v %v\n", cpu, pst, cst)
	}
	fmt.Fprintf(&b, "ac=%x\n", sys.ACPowerW())
	for i, s := range sys.Meter().Samples() {
		fmt.Fprintf(&b, "meter %d %v %x\n", i, s.At, s.W)
	}
	return b.String()
}

// TestIntegrateSteadyReplayBitwise is the determinism contract of the
// change-driven integrator: forcing every segment through the full
// recomputation path must produce byte-for-byte the same outputs as the
// normal run that replays memoized steady segments.
func TestIntegrateSteadyReplayBitwise(t *testing.T) {
	fast := integrateFingerprint(t)

	debugForceFullIntegration = true
	defer func() { debugForceFullIntegration = false }()
	full := integrateFingerprint(t)

	if fast != full {
		fastLines := strings.Split(fast, "\n")
		fullLines := strings.Split(full, "\n")
		for i := range fastLines {
			if i >= len(fullLines) || fastLines[i] != fullLines[i] {
				t.Fatalf("steady replay diverges from full integration at line %d:\n fast: %s\n full: %s",
					i, fastLines[i], fullLines[i])
			}
		}
		t.Fatalf("steady replay diverges from full integration (length %d vs %d)",
			len(fast), len(full))
	}
}

// sliceKernel is a kernel of a non-comparable dynamic type.
type sliceKernel struct{ profiles []workload.Profile }

func (sliceKernel) Name() string { return "slice" }

func (k sliceKernel) ProfileAt(_ sim.Time, p *workload.Profile) sim.Time {
	*p = k.profiles[0]
	return workload.Forever
}

// TestShareProfilesNonComparableKernel assigns equal-looking kernels of
// a non-comparable type to several cores at one instant: the sharing
// decision must not compare them (which would panic), and each core
// evaluates its own profile.
func TestShareProfilesNonComparableKernel(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := sliceKernel{profiles: []workload.Profile{workload.ProfileOf(workload.Compute(), 0)}}
	for cpu := 0; cpu < 3; cpu++ {
		if err := sys.AssignKernel(cpu, k, 1); err != nil {
			t.Fatal(err)
		}
	}
	for cpu := 0; cpu < 3; cpu++ {
		if lead := sys.Core(cpu).profLead; lead != cpu {
			t.Errorf("cpu %d reads core %d's profile, want its own", cpu, lead)
		}
	}
	sys.Run(5 * sim.Millisecond)
	if sys.Core(2).Snapshot().Instructions == 0 {
		t.Error("core running the non-comparable kernel retired no instructions")
	}
}

// TestShareProfilesEqualKernels checks the sharing rule: equal kernels
// started together share the lowest core's evaluation, a kernel
// started later or a different kernel does not.
func TestShareProfilesEqualKernels(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 3; cpu++ {
		if err := sys.AssignKernel(cpu, workload.Mprime(), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.AssignKernel(3, workload.Linpack(), 1); err != nil {
		t.Fatal(err)
	}
	sys.Run(sim.Millisecond)
	if err := sys.AssignKernel(4, workload.Mprime(), 1); err != nil {
		t.Fatal(err)
	}
	for cpu, want := range []int{0, 0, 0, 3, 4} {
		if lead := sys.Core(cpu).profLead; lead != want {
			t.Errorf("cpu %d reads core %d's profile, want core %d", cpu, lead, want)
		}
	}
	// Idling the leader hands its followers to the next equal core.
	if err := sys.AssignKernel(0, nil, 1); err != nil {
		t.Fatal(err)
	}
	for cpu, want := range map[int]int{1: 1, 2: 1} {
		if lead := sys.Core(cpu).profLead; lead != want {
			t.Errorf("after idling cpu 0: cpu %d reads core %d's profile, want core %d", cpu, lead, want)
		}
	}
}

// TestTelemetryFollowsProfileEdges checks the per-core telemetry the
// PCU sees against the kernel's profile at the tick time: a reused
// telemetry slice must expire at the profile's horizon even when no
// integration segment noticed the phase edge yet.
func TestTelemetryFollowsProfileEdges(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := &workload.Phased{
		Label:      "avx phased",
		A:          workload.ProfileOf(workload.Compute(), 0),
		B:          workload.ProfileOf(workload.DGEMM(), 0),
		HalfPeriod: 4 * sim.Millisecond,
	}
	if err := sys.AssignKernel(0, k, 1); err != nil {
		t.Fatal(err)
	}
	sk := sys.Socket(0)
	for i := 0; i < 40; i++ {
		sys.Run(sim.Millisecond)
		now := sys.Now()
		got := sk.telemetry(now).Cores[0].AVXNow
		if want := workload.ProfileOf(k, now).AVXFrac > 0; got != want {
			t.Fatalf("at %v telemetry reports AVX %v, profile says %v", now, got, want)
		}
	}
}
