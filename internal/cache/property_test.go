package cache

import (
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
