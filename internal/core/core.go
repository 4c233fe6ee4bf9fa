package core

import (
	"hswsim/internal/cstate"
	"hswsim/internal/fivr"
	"hswsim/internal/perfctr"
	"hswsim/internal/pstate"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// Core is one physical core (addressed as one logical CPU; hardware
// threads are a property of the kernel placement).
type Core struct {
	sk    *Socket
	Index int
	CPU   int

	// reg and dom are embedded by value: forking a core is a struct
	// copy. The regulator is a pure value; the domain's transition ring
	// is copy-on-write behind a fork-generation stamp.
	reg fivr.Regulator
	dom pstate.Domain
	ctr perfctr.Core

	cstateNow cstate.State
	kernel    workload.Kernel
	kernStart sim.Time
	threads   int

	epbBits uint64

	// avxMode mirrors the PCU's AVX operating mode for this core.
	avxMode bool
	// avxSlowUntil: while the FIVR ramps for the first 256-bit ops, the
	// core executes AVX instructions at reduced throughput
	// (Section II-F's transition workflow).
	avxSlowUntil sim.Time

	lastStall float64
	lastRate  float64
	// lastSD is the AVX-ramp slowdown folded into lastRate; the steady
	// integration path re-checks it each segment because it drifts with
	// time rather than with an event.
	lastSD float64

	lastRequestAt sim.Time

	// Span bookkeeping for the in-flight p-state transition (valid only
	// while tracing and a completion event is pending): applyGrantTagged
	// stamps the request/grant coordinates so onComplete can record the
	// request→complete and grant→complete spans without replaying the
	// domain's transition log.
	spanReqAt   sim.Time
	spanGrantAt sim.Time
	spanFrom    uarch.MHz

	// completeEv identifies the pending completion event (if any) so
	// Fork can re-arm an in-flight transition on the child engine; the
	// callback is the System's closure-free HandleEvent dispatch (arg =
	// CPU), and stale firings no-op inside Domain.Complete.
	completeEv sim.EventID

	// resid accumulates p-state/c-state residency (cpufreq-stats view).
	resid residency

	// Profile horizon cache: prof is the kernel's profile over the
	// kernel-relative window [profFrom, profUntil) (see
	// workload.Kernel.ProfileAt); an empty window means not evaluated.
	// profGen is a socket-unique stamp of the evaluation, so the
	// integrator can tell that the copy in its load entry (stamped
	// loadGen) is still current without comparing 96 bytes.
	prof                workload.Profile
	profFrom, profUntil sim.Time
	profGen, loadGen    uint64
	// profLead indexes the socket core whose cache this core reads:
	// cores running equal kernels from the same start time share one
	// evaluation (see Socket.shareProfiles).
	profLead int
}

func newCore(sk *Socket, index int, voltOffset float64) *Core {
	spec := sk.Spec
	c := &Core{
		sk:        sk,
		Index:     index,
		CPU:       sk.Index*spec.Cores + index,
		reg:       *fivr.NewRegulator(&spec.Power, voltOffset, spec.PStateSwitchUS, sk.rng.Fork(uint64(index)+0xC0)),
		dom:       *pstate.NewDomain(spec),
		cstateNow: sk.sys.cfg.IdleState,
		threads:   1,
		epbBits:   uint64(6), // balanced
	}
	if c.cstateNow == cstate.C0 {
		c.cstateNow = cstate.C6
	}
	return c
}

// onComplete is the transition-completion event body (dispatched from
// System.HandleEvent with arg = CPU).
func (c *Core) onComplete(t sim.Time) {
	c.sk.sys.integrateTo(t)
	if c.dom.Complete(t) {
		c.sk.markDirty()
		if tr := c.sk.sys.trace; tr != nil {
			tr.Emitf(t, trace.PStateComplete, c.sk.Index, c.CPU,
				"now %v", c.dom.Granted())
			tr.Addf(trace.SpanPState, c.sk.Index, c.CPU, c.spanReqAt, t,
				"%v -> %v", c.spanFrom, c.dom.Granted())
			tr.Addf(trace.SpanPStateSwitch, c.sk.Index, c.CPU, c.spanGrantAt, t,
				"%v -> %v", c.spanFrom, c.dom.Granted())
		}
	}
}

// assign places a kernel on the core (nil = idle) at time now.
func (c *Core) assign(now sim.Time, k workload.Kernel, threads int) {
	c.kernel = k
	c.kernStart = now
	c.threads = threads
	c.profFrom, c.profUntil = 0, 0
	c.sk.shareProfiles()
	c.sk.markDirty()
	c.sk.sys.maxReqValid = false
	c.sk.telChanged()
	c.sk.loadsStale = true
	if k == nil {
		prev := c.cstateNow
		c.cstateNow = c.sk.sys.cfg.IdleState
		if tr := c.sk.sys.trace; tr != nil {
			tr.Emitf(now, trace.CStateEnter, c.sk.Index, c.CPU, "%v (idle)", c.cstateNow)
			if prev != c.cstateNow {
				tr.Begin(now, trace.SpanCState, c.sk.Index, c.CPU, c.cstateNow.String())
			}
		}
		return
	}
	if c.cstateNow != cstate.C0 {
		if tr := c.sk.sys.trace; tr != nil {
			tr.Emitf(now, trace.CStateExit, c.sk.Index, c.CPU,
				"%v -> C0 running %q", c.cstateNow, k.Name())
			tr.Begin(now, trace.SpanCState, c.sk.Index, c.CPU, "C0")
		}
	}
	c.cstateNow = cstate.C0
	if workload.ProfileOf(k, 0).AVXFrac > 0 && !c.avxMode {
		// First 256-bit ops: reduced throughput until the PCU grants the
		// AVX voltage at a following grid tick.
		c.avxSlowUntil = now + 500*sim.Microsecond
	}
}

// profileNow returns the profile of the core's kernel at time t and
// its evaluation stamp. The core must be running a kernel. The kernel
// is evaluated only when t leaves the cached horizon window; the
// reference path (debugForceFullIntegration) evaluates on every call
// and never shares.
func (c *Core) profileNow(t sim.Time) (*workload.Profile, uint64) {
	l := c
	if !debugForceFullIntegration {
		l = c.sk.cores[c.profLead]
	}
	rel := t - l.kernStart
	if rel < 0 {
		rel = 0
	}
	if debugForceFullIntegration || rel < l.profFrom || rel >= l.profUntil {
		l.profFrom = rel
		l.profUntil = l.kernel.ProfileAt(rel, &l.prof)
		l.sk.profGen++
		l.profGen = l.sk.profGen
	}
	return &l.prof, l.profGen
}

// profileEnd returns the absolute time at which the profile last
// returned by profileNow may change.
func (c *Core) profileEnd() sim.Time {
	l := c.sk.cores[c.profLead]
	if l.profUntil > workload.Forever-l.kernStart {
		return workload.Forever
	}
	return l.kernStart + l.profUntil
}

// slowdown returns the current execution multiplier (AVX voltage ramp).
func (c *Core) slowdown() float64 {
	if c.sk.sys.Engine.Now() < c.avxSlowUntil {
		return 0.75
	}
	return 1
}

// requestPState records a software p-state request. On parts without an
// opportunity grid the transition starts immediately.
func (c *Core) requestPState(now sim.Time, f uarch.MHz) {
	c.dom.Request(f)
	c.lastRequestAt = now
	c.sk.sys.maxReqValid = false
	c.sk.telChanged()
	// The nil guard is load-bearing: Emitf's variadic boxing allocates
	// at the call site even when the buffer would discard the event,
	// and p-state requests are a hot path for governor workloads.
	if tr := c.sk.sys.trace; tr != nil {
		tr.Emitf(now, trace.PStateRequest, c.sk.Index, c.CPU, "-> %v", c.dom.Requested())
	}
	if c.sk.PCU.GridPeriod() <= 0 {
		// Pre-Haswell: immediate, bounded only by the switching time.
		c.applyGrantTagged(now, c.clampGrantImmediate(), now)
	}
}

// clampGrantImmediate resolves an immediate-mode grant (no PCU
// arbitration beyond the ladder).
func (c *Core) clampGrantImmediate() uarch.MHz {
	req := c.dom.Requested()
	spec := c.sk.Spec
	if req > spec.BaseMHz {
		active := 0
		for _, cc := range c.sk.cores {
			if cc.cstateNow == cstate.C0 && cc.kernel != nil {
				active++
			}
		}
		if c.sk.sys.cfg.TurboEnabled {
			return spec.TurboLimit(active, false)
		}
		return spec.BaseMHz
	}
	return req
}

// applyGrant starts a PCU-granted transition at a grid tick.
func (c *Core) applyGrant(now sim.Time, target uarch.MHz) {
	requestedAt := now
	if c.lastRequestAt > 0 && c.lastRequestAt <= now {
		requestedAt = c.lastRequestAt
	}
	c.applyGrantTagged(now, target, requestedAt)
}

func (c *Core) applyGrantTagged(now sim.Time, target uarch.MHz, requestedAt sim.Time) {
	if target == c.dom.Granted() {
		if _, inflight := c.dom.InFlight(); !inflight {
			return
		}
	}
	if _, inflight := c.dom.InFlight(); inflight {
		// A new grant supersedes the in-flight one; the regulator simply
		// continues to the new point.
		return
	}
	switchTime := c.reg.SetFrequency(target)
	// The regulator voltage moved: the operating point for the next
	// segment changed even before the new clock lands.
	c.sk.markDirty()
	if c.dom.Begin(requestedAt, now, target, switchTime) {
		c.lastRequestAt = 0
		if tr := c.sk.sys.trace; tr != nil {
			tr.Emitf(now, trace.PStateGrant, c.sk.Index, c.CPU,
				"%v -> %v (switch %v)", c.dom.Granted(), target, switchTime)
			c.spanReqAt, c.spanGrantAt, c.spanFrom = requestedAt, now, c.dom.Granted()
		}
		c.completeEv = c.sk.sys.Engine.AtHandler(now+switchTime, c.sk.sys, c.CPU)
	}
}

// FreqMHz returns the core's current running frequency.
func (c *Core) FreqMHz() uarch.MHz { return c.dom.Granted() }

// CState returns the core's current idle state.
func (c *Core) CState() cstate.State { return c.cstateNow }

// Domain exposes the p-state domain (transition log for tools).
func (c *Core) Domain() *pstate.Domain { return &c.dom }

// Snapshot captures the core's performance counters.
func (c *Core) Snapshot() perfctr.Snapshot {
	c.sk.sys.integrateTo(c.sk.sys.Engine.Now())
	return c.ctr.Snapshot(c.sk.sys.Engine.Now())
}

// Volts returns the core's present regulator voltage.
func (c *Core) Volts() float64 { return c.reg.Volts() }
