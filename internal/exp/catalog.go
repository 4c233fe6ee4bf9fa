package exp

import (
	"hswsim/internal/core"
	"hswsim/internal/perfctr"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// KernelCharacter is one kernel's measured behaviour at full load.
type KernelCharacter struct {
	Name      string
	CoreGHz   float64
	IPC       float64
	L3GBs     float64 // derived from profile traffic x rate
	MemGBs    float64
	PkgW      float64 // package + DRAM
	CPUOnlyW  float64 // package domain only
	GIPSPerW  float64
	StallFrac float64
}

// KernelCatalogStudy characterizes the full kernel library on the
// default platform at the base p-state — a roofline-style reference
// table for users picking workload models.
func KernelCatalogStudy(o Options) ([]KernelCharacter, *report.Table, error) {
	kernels := []workload.Kernel{
		workload.BusyWait(), workload.Compute(), workload.Sqrt(),
		workload.Memory(), workload.DGEMM(), workload.L3Stream(),
		workload.MemStream(), workload.PointerChase(), workload.Triad(),
		workload.Firestarter(), workload.Linpack(), workload.Mprime(),
	}
	kernels = append(kernels, workload.HPCKernels()...)

	// One idle parent platform; each kernel characterizes on its own fork.
	parent, err := o.newHSW()
	if err != nil {
		return nil, nil, err
	}
	chars, err := forkMap(parent, kernels, func(sys *core.System, k workload.Kernel) (KernelCharacter, error) {
		for cpu := 0; cpu < 12; cpu++ {
			if err := sys.AssignKernel(cpu, k, 2); err != nil {
				return KernelCharacter{}, err
			}
		}
		sys.SetPStateAll(sys.Spec().BaseMHz)
		sys.Run(o.dur(sim.Second))
		snap := make([]perfctr.Snapshot, 12)
		for cpu := 0; cpu < 12; cpu++ {
			snap[cpu] = sys.Core(cpu).Snapshot()
		}
		a, err := sys.ReadRAPL(0)
		if err != nil {
			return KernelCharacter{}, err
		}
		dur := o.dur(2 * sim.Second)
		sys.Run(dur)
		b, err := sys.ReadRAPL(0)
		if err != nil {
			return KernelCharacter{}, err
		}
		c := KernelCharacter{Name: k.Name()}
		prof := workload.ProfileOf(k, 0)
		gips := 0.0
		for cpu := 0; cpu < 12; cpu++ {
			iv := perfctr.Delta(snap[cpu], sys.Core(cpu).Snapshot())
			gips += iv.GIPS()
			if cpu == 0 {
				c.CoreGHz = iv.FreqGHz()
				c.IPC = iv.IPC()
				c.StallFrac = iv.StallFrac()
			}
		}
		c.L3GBs = gips * prof.L3BytesPerInst
		c.MemGBs = gips * prof.MemBytesPerInst
		pkgW, dramW, err := sys.RAPLPowerW(a, b)
		if err != nil {
			return KernelCharacter{}, err
		}
		c.PkgW = pkgW + dramW
		c.CPUOnlyW = pkgW
		if c.PkgW > 0 {
			c.GIPSPerW = gips / c.PkgW
		}
		return c, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Kernel catalog: 12 cores x 2 threads at 2.5 GHz (socket 0)",
		"Kernel", "Core [GHz]", "IPC", "L3 [GB/s]", "DRAM [GB/s]",
		"pkg+DRAM [W]", "GIPS/W", "stall")
	for _, c := range chars {
		t.AddRow(c.Name,
			report.F("%.2f", c.CoreGHz), report.F("%.2f", c.IPC),
			report.F("%.1f", c.L3GBs), report.F("%.1f", c.MemGBs),
			report.F("%.1f", c.PkgW), report.F("%.3f", c.GIPSPerW),
			report.F("%.0f%%", 100*c.StallFrac))
	}
	return chars, t, nil
}
