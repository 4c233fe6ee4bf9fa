// Package pstate tracks per-core frequency domains: the p-state the
// software requested (via cpufreq/IA32_PERF_CTL), the frequency the PCU
// has granted, and in-flight transitions with their completion times.
// On Haswell-EP a request only takes effect at the PCU's next ~500 us
// opportunity plus the regulator switching time (Section VI-A); the
// domain records both so tools can measure exactly what FTaLaT measures.
package pstate

import (
	"fmt"

	"hswsim/internal/cow"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

// Domain is one core's frequency domain.
type Domain struct {
	spec *uarch.Spec

	requested uarch.MHz // software setting (TurboSettingMHz for turbo)
	granted   uarch.MHz // frequency the core currently runs at
	// pending transition
	target    uarch.MHz
	completes sim.Time
	inFlight  bool

	// transitions is a bounded ring of the most recent logLimit
	// transitions. Storage grows by append (domains that never change
	// frequency pay nothing, lightly-used domains hold only what they
	// logged); once len reaches logLimit the ring wraps through head,
	// so the steady logging path never allocates. The ring is
	// copy-on-write across clones: Clone shares the backing and bumps
	// the fork generation, and the write paths copy it out — exactly
	// len entries, preserving head — before mutating.
	transitions []Transition
	head        int // oldest entry once the ring is full
	logLimit    int
	gen         cow.Stamp // ownership of the transitions backing
}

// Transition records one completed frequency change.
type Transition struct {
	RequestedAt sim.Time // when software asked
	GrantedAt   sim.Time // PCU opportunity that picked it up
	CompletedAt sim.Time // switching finished; new clock active
	From, To    uarch.MHz
}

// Latency is the software-visible transition latency.
func (t Transition) Latency() sim.Time { return t.CompletedAt - t.RequestedAt }

// SwitchTime is the raw regulator/PLL part of the transition.
func (t Transition) SwitchTime() sim.Time { return t.CompletedAt - t.GrantedAt }

// NewDomain builds a domain running at the minimum p-state.
func NewDomain(spec *uarch.Spec) *Domain {
	d := &Domain{
		spec:      spec,
		requested: spec.BaseMHz,
		granted:   spec.MinMHz,
		logLimit:  4096,
	}
	d.gen.Own()
	return d
}

// Clone returns an independent copy of the domain — same requested,
// granted and in-flight transition state. The transition ring is shared
// copy-on-write: both sides keep reading the common backing and the
// first of them to log or complete a transition copies it out first, so
// a clone's future evolution matches the original's exactly without an
// eager ring copy.
func (d *Domain) Clone() *Domain {
	cow.Bump()
	c := *d
	return &c
}

// own runs the copy-on-write barrier: if the transition ring may be
// shared with a clone, replace it with a private right-sized copy
// (same layout — head still indexes correctly).
func (d *Domain) own() {
	if d.gen.Owned() {
		return
	}
	if d.transitions != nil {
		nt := make([]Transition, len(d.transitions))
		copy(nt, d.transitions)
		d.transitions = nt
	}
	d.gen.Own()
}

// SetLogLimit re-caps the transition ring at n entries (min 2), keeping
// the newest entries and re-seating them in a private backing with the
// full capacity pre-allocated, so the logging path never grows the
// slice again. Intended for fleet-scale forks, where the default
// 4096-deep diagnostic log is never read back and its append growth
// dominates the steady stepping path's allocations.
func (d *Domain) SetLogLimit(n int) {
	if n < 2 {
		n = 2
	}
	if n == d.logLimit && cap(d.transitions) >= n && d.gen.Owned() {
		return
	}
	cnt := len(d.transitions)
	start := 0
	if cnt == d.logLimit {
		start = d.head
	}
	keep := cnt
	if keep > n {
		keep = n
	}
	nt := make([]Transition, keep, n)
	for i := 0; i < keep; i++ {
		nt[i] = d.transitions[(start+cnt-keep+i)%cnt]
	}
	d.transitions = nt
	d.head = 0
	d.logLimit = n
	d.gen.Own()
}

// Request records a software p-state request. Values are clamped to the
// selectable range; anything above base is the turbo setting.
func (d *Domain) Request(f uarch.MHz) uarch.MHz {
	switch {
	case f < d.spec.MinMHz:
		f = d.spec.MinMHz
	case f > d.spec.BaseMHz:
		f = d.spec.TurboSettingMHz()
	}
	d.requested = f
	return f
}

// Requested returns the current software setting.
func (d *Domain) Requested() uarch.MHz { return d.requested }

// Granted returns the currently active frequency.
func (d *Domain) Granted() uarch.MHz { return d.granted }

// InFlight reports whether a transition is underway and its target.
func (d *Domain) InFlight() (uarch.MHz, bool) { return d.target, d.inFlight }

// Begin starts a transition to target at the PCU opportunity grantedAt,
// completing after switchTime. requestedAt tags the originating software
// request for latency accounting (use grantedAt for PCU-originated
// changes). A transition to the current frequency is a no-op.
func (d *Domain) Begin(requestedAt, grantedAt sim.Time, target uarch.MHz, switchTime sim.Time) bool {
	if target == d.granted && !d.inFlight {
		return false
	}
	d.target = target
	d.completes = grantedAt + switchTime
	d.inFlight = true
	d.log(Transition{
		RequestedAt: requestedAt,
		GrantedAt:   grantedAt,
		From:        d.granted,
		To:          target,
	})
	return true
}

// log appends to the transition ring, overwriting the oldest entry once
// full.
func (d *Domain) log(t Transition) {
	d.own()
	if len(d.transitions) < d.logLimit {
		d.transitions = append(d.transitions, t)
		return
	}
	d.transitions[d.head] = t
	d.head++
	if d.head == d.logLimit {
		d.head = 0
	}
}

// last returns the most recently logged transition, or nil.
func (d *Domain) last() *Transition {
	n := len(d.transitions)
	if n == 0 {
		return nil
	}
	if n < d.logLimit || d.head == 0 {
		return &d.transitions[n-1]
	}
	return &d.transitions[d.head-1]
}

// Complete applies the pending transition if its completion time has
// arrived, returning true when the frequency changed.
func (d *Domain) Complete(now sim.Time) bool {
	if !d.inFlight || now < d.completes {
		return false
	}
	d.granted = d.target
	d.inFlight = false
	d.own() // Complete writes through last()'s pointer into the ring
	if t := d.last(); t != nil && t.CompletedAt == 0 {
		t.CompletedAt = d.completes
	}
	return true
}

// CompletionTime returns when the in-flight transition lands.
func (d *Domain) CompletionTime() (sim.Time, bool) {
	return d.completes, d.inFlight
}

// Transitions returns the completed transition log in chronological
// order.
func (d *Domain) Transitions() []Transition {
	n := len(d.transitions)
	out := make([]Transition, 0, n)
	start := 0
	if n == d.logLimit {
		start = d.head
	}
	for i := 0; i < n; i++ {
		t := d.transitions[(start+i)%n]
		if t.CompletedAt != 0 {
			out = append(out, t)
		}
	}
	return out
}

// LastTransition returns the most recent completed transition.
func (d *Domain) LastTransition() (Transition, bool) {
	ts := d.Transitions()
	if len(ts) == 0 {
		return Transition{}, false
	}
	return ts[len(ts)-1], true
}

func (d *Domain) String() string {
	return fmt.Sprintf("p-state domain: requested %v, granted %v", d.requested, d.granted)
}
