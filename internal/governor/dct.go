package governor

import (
	"fmt"

	"hswsim/internal/core"
	"hswsim/internal/perfctr"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// DCTPoint is one measured concurrency/frequency configuration.
type DCTPoint struct {
	Cores    int
	Threads  int
	FreqMHz  uarch.MHz
	GBs      float64 // achieved aggregate bandwidth (for stream kernels)
	GIPS     float64 // achieved aggregate instruction rate
	PkgW     float64 // package power, socket 0
	EnergyEf float64 // GIPS per watt
}

// DCTResult is the outcome of a dynamic-concurrency-throttling search.
type DCTResult struct {
	Points []DCTPoint
	Best   DCTPoint
}

// DCTOptimize searches concurrency x frequency for the most
// energy-efficient configuration of a (memory-bound) kernel at a
// required throughput floor. It encodes the paper's conclusion that on
// Haswell-EP "DCT becomes a more viable approach": since DRAM bandwidth
// saturates at 8 cores and is core-clock independent at full
// concurrency, a memory-bound code can shed cores and clock without
// losing throughput.
func DCTOptimize(sys func() (*core.System, error), k workload.Kernel,
	minGBs float64, measure sim.Time) (*DCTResult, error) {
	if measure <= 0 {
		measure = 500 * sim.Millisecond
	}
	res := &DCTResult{}
	var spec *uarch.Spec
	for _, cores := range []int{2, 4, 6, 8, 10, 12} {
		for _, f := range []uarch.MHz{1200, 1800, 2500} {
			s, err := sys()
			if err != nil {
				return nil, err
			}
			spec = s.Spec()
			for cpu := 0; cpu < cores; cpu++ {
				if err := s.AssignKernel(cpu, k, 2); err != nil {
					return nil, err
				}
			}
			s.SetPStateAll(f)
			s.Run(20 * sim.Millisecond)
			before := make([]perfctr.Snapshot, cores)
			for cpu := 0; cpu < cores; cpu++ {
				before[cpu] = s.Core(cpu).Snapshot()
			}
			ra, err := s.ReadRAPL(0)
			if err != nil {
				return nil, err
			}
			s.Run(measure)
			rb, err := s.ReadRAPL(0)
			if err != nil {
				return nil, err
			}
			gips, gbs := 0.0, 0.0
			for cpu := 0; cpu < cores; cpu++ {
				iv := perfctr.Delta(before[cpu], s.Core(cpu).Snapshot())
				gips += iv.GIPS()
				gbs += iv.GIPS() * workload.ProfileOf(k, 0).MemBytesPerInst
			}
			pkgW, dramW, err := s.RAPLPowerW(ra, rb)
			if err != nil {
				return nil, err
			}
			p := DCTPoint{
				Cores: cores, Threads: 2, FreqMHz: f,
				GBs: gbs, GIPS: gips, PkgW: pkgW + dramW,
			}
			if p.PkgW > 0 {
				p.EnergyEf = p.GIPS / p.PkgW
			}
			res.Points = append(res.Points, p)
		}
	}
	_ = spec
	// Pick the most efficient configuration meeting the bandwidth floor.
	for _, p := range res.Points {
		if p.GBs+1e-9 < minGBs {
			continue
		}
		if res.Best.EnergyEf == 0 || p.EnergyEf > res.Best.EnergyEf ||
			(p.EnergyEf == res.Best.EnergyEf && p.PkgW < res.Best.PkgW) {
			res.Best = p
		}
	}
	if res.Best.Cores == 0 {
		return res, fmt.Errorf("governor: no configuration meets %.1f GB/s", minGBs)
	}
	return res, nil
}

// Render summarizes the search.
func (r *DCTResult) Render() string {
	out := "DCT search (cores x frequency -> bandwidth, power, efficiency):\n"
	for _, p := range r.Points {
		mark := " "
		if p == r.Best {
			mark = "*"
		}
		out += fmt.Sprintf("%s %2d cores @ %v: %6.1f GB/s %6.1f W %6.3f GIPS/W\n",
			mark, p.Cores, p.FreqMHz, p.GBs, p.PkgW, p.EnergyEf)
	}
	return out
}
