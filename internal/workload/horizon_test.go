package workload

import (
	"math/rand"
	"testing"

	"hswsim/internal/sim"
)

// horizonKind is what a kernel's ProfileAt contract promises about its
// horizon.
type horizonKind int

const (
	constant   horizonKind = iota // always Forever
	piecewise                     // a later phase edge
	continuous                    // exactly t+1
)

type horizonCase struct {
	k    Kernel
	kind horizonKind
}

// horizonCases lists every in-repo kernel with its horizon class.
func horizonCases(t *testing.T) []horizonCase {
	t.Helper()
	var cs []horizonCase
	for _, k := range Fig2Set() {
		switch {
		case k == nil: // idle has no profile
		case k.Name() == "sinus":
			cs = append(cs, horizonCase{k, continuous})
		default:
			cs = append(cs, horizonCase{k, constant})
		}
	}
	for _, k := range HPCKernels() {
		cs = append(cs, horizonCase{k, constant})
	}
	for _, k := range []Kernel{
		L3Stream(), MemStream(), PointerChase(), Triad(), NUMAStream(0.5),
		Stream(1<<10, 256<<10, 30<<20),
		Firestarter(),
		FirestarterFromPayload(GeneratePayload(HaswellICache(), 1000)),
	} {
		cs = append(cs, horizonCase{k, constant})
	}
	cs = append(cs,
		horizonCase{Linpack(), piecewise},
		horizonCase{Mprime(), continuous},
		horizonCase{Sinus(3 * sim.Millisecond), continuous},
	)
	a := Profile{IPC1: 2, IPC2: 2.4, Activity: 0.8}
	b := Profile{IPC1: 1, IPC2: 1.2, Activity: 0.3, MemBytesPerInst: 4}
	scripted, err := NewScripted("trace",
		Segment{Duration: 10 * sim.Millisecond, Profile: a},
		Segment{Duration: 5 * sim.Millisecond, Profile: b},
		Segment{Duration: 7 * sim.Microsecond, Profile: a},
	)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs,
		horizonCase{scripted, piecewise},
		horizonCase{&Phased{Label: "phased", A: a, B: b, HalfPeriod: 3 * sim.Millisecond}, piecewise},
		horizonCase{&Phased{Label: "pinned", A: a, B: b}, constant},
	)
	return cs
}

// TestProfileHorizonContract checks Kernel.ProfileAt's horizon at
// seeded random times: until lies after t, the profile holds at sampled
// points of [t, min(until, t+1s)) and at until-1, constant kernels
// answer Forever and continuous kernels exactly t+1.
func TestProfileHorizonContract(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range horizonCases(t) {
		name := c.k.Name()
		for i := 0; i < 200; i++ {
			at := sim.Time(rng.Int63n(int64(20 * sim.Second)))
			if i < 4 {
				at = sim.Time(i) // include the kernel start
			}
			var p Profile
			until := c.k.ProfileAt(at, &p)
			if until <= at {
				t.Fatalf("%s: horizon %d not after t=%d", name, until, at)
			}
			switch c.kind {
			case constant:
				if until != Forever {
					t.Fatalf("%s: constant kernel returned horizon %d at t=%d, want Forever", name, until, at)
				}
			case continuous:
				if until != at+1 {
					t.Fatalf("%s: continuous kernel returned horizon %d at t=%d, want t+1", name, until, at)
				}
			case piecewise:
				if until == Forever {
					t.Fatalf("%s: piecewise kernel returned horizon Forever at t=%d", name, at)
				}
			}
			end := until
			if end-at > sim.Second {
				end = at + sim.Second
			}
			checks := []sim.Time{at, end - 1, until - 1}
			for j := 0; j < 8; j++ {
				checks = append(checks, at+sim.Time(rng.Int63n(int64(end-at))))
			}
			for _, s := range checks {
				if got := ProfileOf(c.k, s); got != p {
					t.Fatalf("%s: profile at t=%d differs from t=%d inside its horizon %d", name, s, at, until)
				}
			}
		}
	}
}

// TestProfileHorizonEdges pins the piecewise kernels' horizons to their
// phase edges.
func TestProfileHorizonEdges(t *testing.T) {
	var p Profile
	ms := sim.Millisecond
	for _, tc := range []struct {
		k         Kernel
		at, until sim.Time
	}{
		{Linpack(), 0, 144 * ms},
		{Linpack(), 144*ms - 1, 144 * ms},
		{Linpack(), 144 * ms, 180 * ms},
		{Linpack(), 200 * ms, 324 * ms},
		{&Phased{HalfPeriod: ms}, 0, ms},
		{&Phased{HalfPeriod: ms}, 2500 * sim.Microsecond, 3 * ms},
	} {
		if got := tc.k.ProfileAt(tc.at, &p); got != tc.until {
			t.Errorf("%T at %v: horizon %v, want %v", tc.k, tc.at, got, tc.until)
		}
	}
	k, err := NewScripted("s",
		Segment{Duration: 10 * ms, Profile: Profile{IPC1: 1, IPC2: 1}},
		Segment{Duration: 5 * ms, Profile: Profile{IPC1: 2, IPC2: 2}},
	)
	if err != nil {
		t.Fatal(err)
	}
	for at, want := range map[sim.Time]sim.Time{
		0: 10 * ms, 10 * ms: 15 * ms, 14 * ms: 15 * ms, 15 * ms: 25 * ms, 26 * ms: 30 * ms,
	} {
		if got := k.ProfileAt(at, &p); got != want {
			t.Errorf("scripted at %v: horizon %v, want %v", at, got, want)
		}
	}
}
