// Package workload models the benchmark kernels the paper runs against
// the platform: the RAPL-validation microbenchmark set of Figure 2
// (idle, sinus, busy wait, memory, compute, dgemm, sqrt), the while(1)
// no-stall loop behind Table III, the stream-read kernels behind
// Figures 7/8, and the three stress workloads of Tables IV/V
// (FIRESTARTER, LINPACK, mprime).
//
// A kernel is described by an execution profile: unconstrained IPC,
// SMT scaling, 256-bit-operation fraction (which triggers AVX
// frequencies), switching-activity factor (which drives dynamic power),
// and per-instruction L3/DRAM traffic (which the cache model turns into
// stalls and bandwidth). Profiles may vary over virtual time (sinus,
// LINPACK phases, mprime's drift) — the paper exploits exactly this
// distinction when it notes FIRESTARTER's "extremely constant power
// consumption patterns" against mprime's variability.
//
// Every kernel reports that distinction itself: Kernel.ProfileAt
// returns, with the profile, its horizon — the first time at which the
// profile may differ. Constant kernels (the static microbenchmarks,
// FIRESTARTER) answer Forever, piecewise kernels (LINPACK, Phased,
// Scripted) their next phase edge, and continuous kernels (sinus,
// mprime) t+1. The platform evaluates a profile once per horizon
// rather than once per integration segment.
package workload

import (
	"fmt"
	"math"

	"hswsim/internal/sim"
)

// Profile is the instantaneous execution characteristic of one kernel.
type Profile struct {
	// IPC1 is the unconstrained instructions/cycle with one thread on
	// the core; IPC2 is the combined IPC with both hardware threads.
	IPC1, IPC2 float64
	// AVXFrac is the fraction of instructions that are 256-bit AVX/FMA
	// operations (drives AVX frequency selection and current draw).
	AVXFrac float64
	// Activity is the switching-activity factor for core dynamic power
	// (1.0 ~ FIRESTARTER-class full-die toggling).
	Activity float64
	// L3BytesPerInst / MemBytesPerInst is read traffic per instruction
	// hitting the L3 or DRAM respectively.
	L3BytesPerInst  float64
	MemBytesPerInst float64
	// MLPOverride, when positive, bounds the in-flight cache lines this
	// kernel can sustain regardless of the hardware's line-fill buffers
	// — 1 models a dependent pointer chase, whose bandwidth is purely
	// latency-bound.
	MLPOverride int
	// RemoteMemFrac is the share of DRAM traffic served by the other
	// socket's memory (NUMA placement): it crosses QPI, paying extra
	// latency and competing for the interconnect's bandwidth.
	RemoteMemFrac float64
	// UncoreSens is the fraction of IPC bound by uncore latency even
	// when bandwidth caps are not binding (out-of-order windows cannot
	// hide all L2-miss latency). Effective IPC is scaled by
	// 1 - UncoreSens*(1 - fu/UncoreRefGHz), clamped at fu = ref. This
	// is what lets a higher uncore clock overcompensate a lower core
	// clock (the Table IV IPS crossover).
	UncoreSens   float64
	UncoreRefGHz float64
}

// MemoryBound reports whether the kernel generates last-level or DRAM
// traffic at all (the UFS stall signal).
func (p Profile) MemoryBound() bool {
	return p.L3BytesPerInst > 0 || p.MemBytesPerInst > 0
}

// Forever is the horizon of a profile that never changes.
const Forever = sim.Time(math.MaxInt64)

// Kernel is a runnable workload model.
type Kernel interface {
	Name() string
	// ProfileAt writes the execution profile at virtual time t (time
	// since the kernel started, t >= 0) into p and returns its horizon:
	// the first time after t at which the profile may differ. The
	// profile is the same at every time in [t, until). Constant kernels
	// return Forever, piecewise kernels their next phase edge, and
	// continuous kernels t+1.
	//
	// ProfileAt must be a pure function of t and the kernel's value: no
	// state, no dependence on call order. The platform relies on this
	// to reuse one evaluation until the horizon and to share it between
	// cores that run equal kernels from the same start time.
	ProfileAt(t sim.Time, p *Profile) (until sim.Time)
}

// ProfileOf returns k's profile at time t, for callers outside the
// integration path that need only the value.
func ProfileOf(k Kernel, t sim.Time) Profile {
	var p Profile
	k.ProfileAt(t, &p)
	return p
}

// static is a time-invariant kernel.
type static struct {
	name string
	p    Profile
}

func (s *static) Name() string   { return s.name }
func (s *static) String() string { return s.name }

func (s *static) ProfileAt(_ sim.Time, p *Profile) sim.Time {
	*p = s.p
	return Forever
}

// Static builds a constant-profile kernel.
func Static(name string, p Profile) Kernel { return &static{name: name, p: p} }

// BusyWait is a while(1) spin loop: moderate IPC, minimal switching
// activity, zero memory traffic — the paper's no-memory-stall probe for
// the uncore frequency map (Table III).
func BusyWait() Kernel {
	return Static("busy wait", Profile{
		IPC1: 1.0, IPC2: 1.2, Activity: 0.35,
	})
}

// Compute is a scalar arithmetic kernel operating from registers/L1.
func Compute() Kernel {
	return Static("compute", Profile{
		IPC1: 2.2, IPC2: 2.6, Activity: 0.70,
	})
}

// Sqrt chains long-latency divide/sqrt operations: very low IPC, modest
// power — the workload that exposes event-count-based RAPL modeling
// (Figure 2a) because its power is poorly predicted by its IPC.
func Sqrt() Kernel {
	return Static("sqrt", Profile{
		IPC1: 0.35, IPC2: 0.6, Activity: 0.55,
	})
}

// Memory streams from DRAM: bandwidth-bound with low effective IPC.
func Memory() Kernel {
	return Static("memory", Profile{
		IPC1: 2.0, IPC2: 2.4, Activity: 0.50,
		MemBytesPerInst: 8,
	})
}

// DGEMM is a blocked matrix multiply: AVX/FMA dense compute with
// moderate cache traffic.
func DGEMM() Kernel {
	return Static("dgemm", Profile{
		IPC1: 2.5, IPC2: 2.8, AVXFrac: 0.60, Activity: 0.95,
		L3BytesPerInst: 0.50, MemBytesPerInst: 0.05,
	})
}

// L3Stream reads a working set that fits the L3 but overflows the L2
// (the paper uses 17 MB against a 30 MB L3).
func L3Stream() Kernel {
	return Static("L3 read", Profile{
		IPC1: 2.0, IPC2: 2.4, Activity: 0.55,
		L3BytesPerInst: 8,
	})
}

// MemStream reads a working set far beyond the L3 (350 MB in the paper).
func MemStream() Kernel {
	return Static("DRAM read", Profile{
		IPC1: 2.0, IPC2: 2.4, Activity: 0.50,
		MemBytesPerInst: 8,
	})
}

// PointerChase is a dependent-load chain through a DRAM-resident
// working set: one outstanding miss at a time, so throughput is the
// reciprocal of memory latency — the classic latency microbenchmark.
func PointerChase() Kernel {
	return Static("pointer chase", Profile{
		IPC1: 1.0, IPC2: 1.6, Activity: 0.30,
		MemBytesPerInst: 64, // one line per (chain) instruction
		MLPOverride:     1,
	})
}

// Triad is a STREAM-triad-like kernel: two loads and a store per
// element with a fused multiply-add, DRAM bandwidth bound with a
// moderate FP component.
func Triad() Kernel {
	return Static("triad", Profile{
		IPC1: 1.8, IPC2: 2.2, AVXFrac: 0.30, Activity: 0.60,
		MemBytesPerInst: 12,
	})
}

// NUMAStream reads DRAM with the given fraction of accesses served by
// the remote socket's memory over QPI.
func NUMAStream(remoteFrac float64) Kernel {
	if remoteFrac < 0 {
		remoteFrac = 0
	}
	if remoteFrac > 1 {
		remoteFrac = 1
	}
	return Static(fmt.Sprintf("DRAM read (%.0f%% remote)", remoteFrac*100), Profile{
		IPC1: 2.0, IPC2: 2.4, Activity: 0.50,
		MemBytesPerInst: 8, RemoteMemFrac: remoteFrac,
	})
}

// Stream picks the cache level a read benchmark exercises from its
// footprint, mirroring how the paper's benchmark selects 17 MB vs 350 MB.
func Stream(footprintBytes, l2Bytes, l3Bytes int) Kernel {
	switch {
	case footprintBytes <= l2Bytes:
		return Static("L2 read", Profile{IPC1: 2.5, IPC2: 2.8, Activity: 0.55})
	case footprintBytes <= l3Bytes:
		return L3Stream()
	default:
		return MemStream()
	}
}

// sinus modulates a compute profile's intensity sinusoidally — the
// "sinus" power-pattern workload of the Figure 2 validation set.
type sinus struct {
	period sim.Time
}

func (s *sinus) Name() string { return "sinus" }

func (s *sinus) ProfileAt(t sim.Time, p *Profile) sim.Time {
	phase := 2 * math.Pi * float64(t%s.period) / float64(s.period)
	m := 0.5 + 0.45*math.Sin(phase) // intensity in [0.05, 0.95]
	*p = Profile{
		IPC1:     0.4 + 2.0*m,
		IPC2:     0.5 + 2.3*m,
		Activity: 0.15 + 0.75*m,
	}
	return t + 1
}

// Sinus returns the sinusoidally modulated load with the given period.
func Sinus(period sim.Time) Kernel {
	if period <= 0 {
		period = sim.Second
	}
	return &sinus{period: period}
}

// Firestarter models FIRESTARTER 1.2's Haswell kernel (Section VIII):
// groups of four instructions sized to the 16-byte fetch window,
// executed from reg/L1/L2/L3/mem at the published 27.8/62.7/7.1/0.8/1.6 %
// ratio, reaching 3.1 IPC with Hyper-Threading and 2.8 without, with
// near-perfectly constant switching activity at the die's maximum.
type firestarterKernel struct{}

// FIRESTARTER instruction-group mix (fractions of groups per level).
const (
	FSGroupReg = 0.278
	FSGroupL1  = 0.627
	FSGroupL2  = 0.071
	FSGroupL3  = 0.008
	FSGroupMem = 0.016
)

func (firestarterKernel) Name() string { return "FIRESTARTER" }

func (firestarterKernel) ProfileAt(_ sim.Time, p *Profile) sim.Time {
	// Traffic per instruction from the group construction: cache-level
	// groups carry a 256-bit store (I1) plus a 256-bit load (I2) = 64 B
	// per group; mem groups carry the load only (I1 stays on registers)
	// = 32 B. L1/L2 traffic is absorbed by the core model; L3/mem
	// traffic reaches the uncore. The profile never varies: FIRESTARTER's
	// defining property in the paper's stress-test comparison.
	*p = Profile{
		// Unconstrained IPC; at the Table IV operating point
		// (~2.3 GHz core, ~2.3 GHz uncore) the uncore-latency term
		// brings these to the paper's measured 2.8 / 3.1.
		IPC1:            3.00,
		IPC2:            3.33,
		AVXFrac:         0.50,
		Activity:        1.00,
		L3BytesPerInst:  FSGroupL3 * 64 / 4,
		MemBytesPerInst: FSGroupMem * 32 / 4,
		UncoreSens:      0.30,
		UncoreRefGHz:    3.0,
	}
	return Forever
}

// Firestarter returns the FIRESTARTER stress kernel.
func Firestarter() Kernel { return firestarterKernel{} }

// linpack models Intel-LINPACK-style blocked LU: AVX-saturated compute
// with phase structure (panel factorization vs update) that makes its
// power draw less constant than FIRESTARTER's and slightly lower on
// average, at the lowest sustained frequency of the three stress tests
// (Table V).
type linpack struct{}

func (linpack) Name() string { return "LINPACK" }

func (linpack) ProfileAt(t sim.Time, p *Profile) sim.Time {
	// ~180 ms factorization steps: 80% update phase (dense FMA), 20%
	// panel phase (memory-bound, lower activity).
	const step = 180 * sim.Millisecond
	const panelStart = step * 8 / 10
	stepStart := t - t%step
	if t-stepStart >= panelStart {
		// Panel factorization: DRAM-bound, stalls heavily — EET
		// withholds turbo and power drops well below TDP.
		*p = Profile{
			IPC1: 1.6, IPC2: 1.9, AVXFrac: 0.40, Activity: 0.45,
			L3BytesPerInst: 2.0, MemBytesPerInst: 2.2,
		}
		return stepStart + step
	}
	// Blocked update phase: dense FMA, mostly cache-resident, denser
	// switching than FIRESTARTER's mixed groups — which is why LINPACK
	// sustains the lowest frequency of the three stress tests.
	*p = Profile{
		IPC1: 2.7, IPC2: 2.9, AVXFrac: 0.85, Activity: 1.13,
		L3BytesPerInst: 0.8, MemBytesPerInst: 0.10,
	}
	return stepStart + panelStart
}

// Linpack returns the LINPACK-style stress kernel.
func Linpack() Kernel { return linpack{} }

// mprime models the Prime95/mprime torture test: FFT-based, AVX-using
// but less execution-dense than FIRESTARTER, with slow drift between
// FFT sizes that makes its power the least constant of the three.
type mprime struct{}

func (mprime) Name() string { return "mprime" }

func (mprime) ProfileAt(t sim.Time, p *Profile) sim.Time {
	// Drift between FFT working sets every ~2 s.
	phase := 2 * math.Pi * float64(t%(4*sim.Second)) / float64(4*sim.Second)
	w := 0.5 + 0.5*math.Sin(phase)
	*p = Profile{
		IPC1:            2.3 + 0.3*w,
		IPC2:            2.6 + 0.3*w,
		AVXFrac:         0.45,
		Activity:        0.78 + 0.08*w,
		L3BytesPerInst:  0.5 + 0.4*w,
		MemBytesPerInst: 0.10 + 0.08*w,
	}
	return t + 1
}

// Mprime returns the mprime-style stress kernel.
func Mprime() Kernel { return mprime{} }

// Scripted replays a sequence of (duration, profile) segments, looping
// at the end — a trace-driven kernel for reproducing recorded
// application phase behaviour.
type Scripted struct {
	Label    string
	Segments []Segment
	total    sim.Time
}

// Segment is one phase of a scripted kernel.
type Segment struct {
	Duration sim.Time
	Profile  Profile
}

// NewScripted builds a looping trace-driven kernel.
func NewScripted(label string, segments ...Segment) (*Scripted, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("workload: scripted kernel needs segments")
	}
	s := &Scripted{Label: label, Segments: segments}
	for i, seg := range segments {
		if seg.Duration <= 0 {
			return nil, fmt.Errorf("workload: segment %d has non-positive duration", i)
		}
		if err := seg.Profile.Validate(); err != nil {
			return nil, fmt.Errorf("workload: segment %d: %w", i, err)
		}
		s.total += seg.Duration
	}
	return s, nil
}

func (s *Scripted) Name() string { return s.Label }

func (s *Scripted) ProfileAt(t sim.Time, p *Profile) sim.Time {
	end := t - t%s.total // start of the current loop
	for i := range s.Segments {
		seg := &s.Segments[i]
		end += seg.Duration
		if t < end {
			*p = seg.Profile
			return end
		}
	}
	// Unreachable: the segment durations sum to total.
	*p = s.Segments[len(s.Segments)-1].Profile
	return end
}

// Phased alternates between two profiles with the given half-period —
// the workload class whose characteristics change "at an unfavorable
// rate" for energy-efficient turbo's 1 ms stall polling (Section II-E).
type Phased struct {
	Label      string
	A, B       Profile
	HalfPeriod sim.Time
}

func (p *Phased) Name() string { return p.Label }

func (p *Phased) ProfileAt(t sim.Time, dst *Profile) sim.Time {
	if p.HalfPeriod <= 0 {
		*dst = p.A
		return Forever
	}
	half := t / p.HalfPeriod
	if half%2 == 0 {
		*dst = p.A
	} else {
		*dst = p.B
	}
	return (half + 1) * p.HalfPeriod
}

// Fig2Set returns the RAPL-validation workload set of Figure 2, in the
// paper's legend order (idle is represented by a nil kernel).
func Fig2Set() []Kernel {
	return []Kernel{
		nil, // idle
		Sinus(sim.Second),
		BusyWait(),
		Memory(),
		Compute(),
		DGEMM(),
		Sqrt(),
	}
}

// NameOf renders a kernel's name, mapping nil to "idle".
func NameOf(k Kernel) string {
	if k == nil {
		return "idle"
	}
	return k.Name()
}

// Validate sanity-checks a profile for model-breaking values.
func (p Profile) Validate() error {
	if p.IPC1 < 0 || p.IPC2 < 0 || p.IPC2 < p.IPC1*0.5 {
		return fmt.Errorf("workload: implausible IPC pair %v/%v", p.IPC1, p.IPC2)
	}
	if p.AVXFrac < 0 || p.AVXFrac > 1 {
		return fmt.Errorf("workload: AVX fraction %v outside [0,1]", p.AVXFrac)
	}
	if p.Activity < 0 || p.Activity > 1.5 {
		return fmt.Errorf("workload: activity %v outside [0,1.5]", p.Activity)
	}
	if p.L3BytesPerInst < 0 || p.MemBytesPerInst < 0 {
		return fmt.Errorf("workload: negative traffic")
	}
	return nil
}
