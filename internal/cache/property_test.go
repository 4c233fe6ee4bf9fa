package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hswsim/internal/ring"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

func fuzzLoads(m *Model, nCores, mix uint8, fcSel uint8) []CoreLoad {
	n := int(nCores)%m.Spec.Cores + 1
	freqs := []float64{1.2, 1.5, 1.8, 2.1, 2.5, 2.9}
	kernels := []workload.Kernel{
		workload.BusyWait(), workload.Compute(), workload.DGEMM(),
		workload.L3Stream(), workload.MemStream(), workload.Firestarter(),
	}
	loads := make([]CoreLoad, n)
	for i := range loads {
		loads[i] = CoreLoad{
			CoreID:  i,
			FreqGHz: freqs[(int(fcSel)+i)%len(freqs)],
			Threads: 1 + (int(mix)+i)%2,
			Prof:    workload.ProfileOf(kernels[(int(mix)+i)%len(kernels)], 0),
		}
	}
	return loads
}

// Property: solver outputs are physical — rates within [0, unconstrained],
// stall fractions within [0, 1], and aggregate bandwidths within the
// hardware capacities.
func TestPropertySolverPhysical(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	f := func(nCores, mix, fcSel uint8, fuSel uint8) bool {
		fus := []float64{1.2, 2.0, 2.5, 3.0}
		fu := fus[int(fuSel)%len(fus)]
		loads := fuzzLoads(m, nCores, mix, fcSel)
		res := m.Solve(loads, fu)
		memTotal, l3Total := 0.0, 0.0
		for _, r := range res {
			if r.Rate < 0 || r.Rate > r.UnconstrainedRate+1e-6 {
				return false
			}
			if r.StallFrac < -1e-9 || r.StallFrac > 1+1e-9 {
				return false
			}
			memTotal += r.MemGBs
			l3Total += r.L3GBs
		}
		if memTotal > m.IMC.StreamCapacityGBs(fu)*1.001 {
			return false
		}
		if l3Total > m.L3CapacityGBs(fu)*1.001 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising the uncore clock never reduces any core's rate
// (uncore frequency is monotonically good).
func TestPropertyUncoreMonotone(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	f := func(nCores, mix, fcSel uint8) bool {
		loads := fuzzLoads(m, nCores, mix, fcSel)
		lo := m.Solve(loads, 1.5)
		hi := m.Solve(loads, 3.0)
		for i := range lo {
			if hi[i].Rate+1e-6 < lo[i].Rate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising one core's clock never reduces its own rate when
// running alone (no shared-capacity interference).
func TestPropertyCoreFreqMonotoneAlone(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	kernels := []workload.Kernel{
		workload.BusyWait(), workload.Compute(), workload.DGEMM(),
		workload.L3Stream(), workload.MemStream(), workload.Firestarter(),
	}
	f := func(kSel uint8, threads bool) bool {
		k := kernels[int(kSel)%len(kernels)]
		th := 1
		if threads {
			th = 2
		}
		prev := -1.0
		for _, fc := range []float64{1.2, 1.6, 2.0, 2.5, 3.0, 3.3} {
			res := m.Solve([]CoreLoad{{CoreID: 0, FreqGHz: fc, Threads: th, Prof: workload.ProfileOf(k, 0)}}, 3.0)
			if res[0].Rate+1e-6 < prev {
				return false
			}
			prev = res[0].Rate
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding cores never reduces aggregate bandwidth.
func TestPropertyConcurrencyMonotone(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	for _, k := range []workload.Kernel{workload.L3Stream(), workload.MemStream()} {
		prev := -1.0
		for n := 1; n <= spec.Cores; n++ {
			loads := make([]CoreLoad, n)
			for i := range loads {
				loads[i] = CoreLoad{CoreID: i, FreqGHz: 2.5, Threads: 2, Prof: workload.ProfileOf(k, 0)}
			}
			res := m.Solve(loads, 3.0)
			bw := TotalL3GBs(res) + TotalMemGBs(res)
			if bw+1e-6 < prev {
				t.Fatalf("%s: bandwidth fell from %.1f to %.1f at %d cores", k.Name(), prev, bw, n)
			}
			prev = bw
		}
	}
}

// sameBits reports whether two results are bitwise equal.
func sameBits(a, b CoreResult) bool {
	return math.Float64bits(a.Rate) == math.Float64bits(b.Rate) &&
		math.Float64bits(a.UnconstrainedRate) == math.Float64bits(b.UnconstrainedRate) &&
		math.Float64bits(a.L3GBs) == math.Float64bits(b.L3GBs) &&
		math.Float64bits(a.MemGBs) == math.Float64bits(b.MemGBs) &&
		math.Float64bits(a.StallFrac) == math.Float64bits(b.StallFrac)
}

// Property: a memo never changes a solve's result. Each seed drives a
// random sequence of solves on one memo — frequencies, thread counts,
// the uncore clock, slot order and the active set move; one key shows
// up on cores of both hop classes; Key 0 loads are mixed in — and every
// result must equal a fresh Solve of the same loads bitwise. The test
// also requires that the sequences exercised slot reuse, neighbour
// copies and same-key neighbours across hop classes.
func TestPropertyMemoMatchesFreshSolve(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	// Key k > 0 always stands for profs[k-1]; a Key 0 load may carry any
	// of them.
	var profs []workload.Profile
	for _, k := range []workload.Kernel{
		workload.MemStream(), workload.L3Stream(), workload.PointerChase(), workload.Compute(),
	} {
		profs = append(profs, workload.ProfileOf(k, 0))
	}
	freqs := []float64{2.1, 2.5}
	uncores := []float64{2.2, 3.0}
	var reused, copied, crossClass int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		restamp := func(ld *CoreLoad) {
			k := rng.Intn(len(profs) + 1)
			ld.Key = uint64(k)
			if k == 0 {
				k = 1 + rng.Intn(len(profs))
			}
			ld.Prof = profs[k-1]
		}
		var memo Memo
		var loads []CoreLoad
		unc := uncores[0]
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(7); {
			case op == 0 || len(loads) == 0:
				// New active set in random slot order.
				loads = loads[:0]
				for _, c := range rng.Perm(spec.Cores)[:rng.Intn(spec.Cores+1)] {
					ld := CoreLoad{CoreID: c, FreqGHz: freqs[rng.Intn(2)], Threads: 1 + rng.Intn(2)}
					restamp(&ld)
					loads = append(loads, ld)
				}
			case op == 1:
				// One kernel on the whole die, cores in order: one key
				// across both hop classes.
				ld := CoreLoad{FreqGHz: freqs[rng.Intn(2)], Threads: 1 + rng.Intn(2)}
				restamp(&ld)
				loads = loads[:0]
				for c := 0; c < spec.Cores; c++ {
					ld.CoreID = c
					loads = append(loads, ld)
				}
			case op == 2:
				unc = uncores[rng.Intn(2)]
			case op == 3:
				loads[rng.Intn(len(loads))].FreqGHz = freqs[rng.Intn(2)]
			case op == 4:
				loads[rng.Intn(len(loads))].Threads = 1 + rng.Intn(2)
			case op == 5:
				restamp(&loads[rng.Intn(len(loads))])
			case op == 6:
				i, j := rng.Intn(len(loads)), rng.Intn(len(loads))
				loads[i], loads[j] = loads[j], loads[i]
			}
			for i := range loads {
				ld := &loads[i]
				if ld.Key == 0 {
					continue
				}
				if memo.uncore == unc && i < len(memo.keys) &&
					memo.keys[i] == (memoKey{ld.CoreID, ld.FreqGHz, ld.Threads, ld.Key}) {
					reused++
					continue
				}
				if i == 0 {
					continue
				}
				if p := &loads[i-1]; p.Key == ld.Key && p.FreqGHz == ld.FreqGHz && p.Threads == ld.Threads {
					if m.classOf(p.CoreID) == m.classOf(ld.CoreID) {
						copied++
					} else {
						crossClass++
					}
				}
			}
			got := m.SolveMemoized(&memo, loads, unc)
			want := m.Solve(loads, unc)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Logf("seed %d step %d slot %d (core %d): memo %+v, fresh %+v",
						seed, step, i, loads[i].CoreID, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if reused == 0 || copied == 0 || crossClass == 0 {
		t.Fatalf("sequences did not exercise the memo: %d reused, %d copied, %d same-key neighbours across hop classes",
			reused, copied, crossClass)
	}
}
