package core

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"hswsim/internal/cow"
	"hswsim/internal/obs"
	"hswsim/internal/sim"
)

// forkPool is the tree-wide free list of released fork children. One
// pool is created per root system and shared (by pointer) with every
// fork, so any released child's storage — engine, socket/core slabs,
// MSR device — can be recycled by the next Fork anywhere in the tree.
//
// A plain mutex-guarded slice rather than a sync.Pool: reuse must be
// deterministic (tests assert a released child is reused, and the GC
// must not silently drop warm storage between sweep points).
type forkPool struct {
	mu   sync.Mutex
	free []*System
}

// forkPoolMax bounds the free list; children released beyond it are
// left to the GC.
const forkPoolMax = 256

func (p *forkPool) get() *System {
	p.mu.Lock()
	var c *System
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	return c
}

// getN pops up to max released children in one lock acquisition.
func (p *forkPool) getN(dst []*System, max int) int {
	p.mu.Lock()
	n := len(p.free)
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		dst[i] = p.free[len(p.free)-1-i]
		p.free[len(p.free)-1-i] = nil
	}
	p.free = p.free[:len(p.free)-n]
	p.mu.Unlock()
	return n
}

func (p *forkPool) put(c *System) {
	p.mu.Lock()
	if len(p.free) < forkPoolMax {
		p.free = append(p.free, c)
	}
	p.mu.Unlock()
}

// Release returns a forked system's storage to the tree's child free
// list so a subsequent Fork can recycle it instead of allocating. Only
// fork children are poolable; calling Release on a root system is a
// no-op. The caller must not touch the system afterwards — the next
// Fork may overwrite it wholesale.
func (s *System) Release() {
	if s.releaseTo == nil {
		return
	}
	s.releaseTo.put(s)
}

// Fork produces an independent copy of the platform whose future
// evolution is bitwise-identical to continuing the original: same
// virtual clock, same event tie-break order, same RNG streams, same
// component state. Parent and child then diverge only through the
// operations applied to each — the foundation for running sweep points
// concurrently from one warmed-up platform.
//
// Mechanically, a fork is one cow.Bump plus struct copies: every
// component is embedded by value in its socket/core shell, and the
// remaining internal slices and maps (trace rings, meter samples, PCU
// bookkeeping, the MSR register file) are stamped with a fork
// generation and copied lazily by the first write on either side.
// P-state transition rings and residency bins are instead privatized
// eagerly into storage harvested from the recycled child — that
// eager-privatization invariant is what makes harvesting sound (every
// pooled child's backing is private by induction), and it is what
// makes steady-state fork/Release cycles nearly allocation-free. The
// pending platform timers (per-socket PCU grid tick, meter sample,
// in-flight p-state completions) are re-created declaratively on the
// child engine with their original (time, sequence) coordinates
// through the closure-free Handler path, so re-arming allocates
// nothing.
//
// Fork requires a quiescent platform: no events other than the
// platform's own timers may be pending (experiment-level Every
// closures, WakeCore one-shots and governor timers close over the
// parent and cannot be transplanted). Forking with foreign events
// pending returns an error.
//
// On an integrated parent (which any quiescent system is — every Run /
// RunUntil ends with an integrateTo) Fork leaves the parent read-only
// except for the lock-protected child free list, so many goroutines may
// fork the same parent concurrently.
func (s *System) Fork() (*System, error) {
	start := time.Now()
	if err := s.forkPrep(); err != nil {
		return nil, err
	}
	n := s.pool.get()
	reused := n != nil
	if !reused {
		n = s.newChildShells(1)[0]
	}
	// One generation bump freezes every copy-on-write backing shared
	// below; individual Clone calls bump again, which is harmless.
	cow.Bump()
	s.populateFork(n, reused)

	if reused {
		obs.CoreForkReuse.Inc()
	}
	obs.CoreForkBytes.Add(s.forkCopiedBytes())
	obs.CoreForkWall.Observe(time.Since(start).Nanoseconds())
	return n, nil
}

// ForkN forks count children in one batch: recycled children are
// drained from the free list in one lock acquisition, the remainder's
// shells are slab-allocated together (one System/Socket/Core slab each
// for the whole batch instead of per-child allocations), and a single
// generation bump covers every child — one global-counter increment
// per batch rather than per fork, with identical copy-on-write
// semantics, since any bump stales every sharer and each first writer
// copies out privately regardless of how many siblings the bump
// created. This is the fan-out path for fleet-scale forking (see
// internal/fleet); for a single child it is equivalent to Fork.
func (s *System) ForkN(count int) ([]*System, error) {
	if count <= 0 {
		return nil, nil
	}
	start := time.Now()
	if err := s.forkPrep(); err != nil {
		return nil, err
	}
	out := make([]*System, count)
	reusedN := s.pool.getN(out, count)
	if reusedN < count {
		copy(out[reusedN:], s.newChildShells(count-reusedN))
	}
	cow.Bump()
	for i, n := range out {
		s.populateFork(n, i < reusedN)
	}
	if reusedN > 0 {
		obs.CoreForkReuse.Add(int64(reusedN))
	}
	obs.CoreForkBytes.Add(s.forkCopiedBytes() * int64(count))
	obs.CoreForkWall.Observe(time.Since(start).Nanoseconds())
	return out, nil
}

// forkPrep catches the parent's accounting up to now and inventories
// the platform's own pending timers, so a foreign event is reported
// before any child storage is touched.
func (s *System) forkPrep() error {
	if s.lastIntegrate != s.Engine.Now() {
		// Catch-up path: mutates the parent, so it is only safe
		// single-threaded. Quiescent systems never take it.
		s.integrateTo(s.Engine.Now())
	}
	expected := 1 // meter sample
	for _, sk := range s.sockets {
		if !s.Engine.IsPending(sk.tickEv) {
			return fmt.Errorf("core: fork: socket %d grid tick not pending", sk.Index)
		}
		expected++
		for _, c := range sk.cores {
			if s.Engine.IsPending(c.completeEv) {
				expected++
			}
		}
	}
	if !s.Engine.IsPending(s.meterEv) {
		return fmt.Errorf("core: fork: meter sample event not pending")
	}
	if pending := s.Engine.Pending(); pending != expected {
		return fmt.Errorf("core: fork: %d foreign events pending (cannot transplant their closures); fork only a quiescent platform",
			pending-expected)
	}
	return nil
}

// newChildShells bulk-allocates count fresh child skeletons: the
// System/Socket/Core structs and their pointer slices come from one
// slab each for the whole batch, so a 1000-child fan-out costs six
// slice allocations plus per-child MSR devices instead of six
// allocations per child. Pool membership guarantees shape — the pool
// is only reachable from forks of this root, so a pooled child always
// has this root's socket/core geometry and layout; shells built here
// enter the pool on Release and uphold the same guarantee.
func (s *System) newChildShells(count int) []*System {
	nsk := len(s.sockets)
	totalCores := 0
	for _, sk := range s.sockets {
		totalCores += len(sk.cores)
	}
	sysSlab := make([]System, count)
	sockSlab := make([]Socket, count*nsk)
	coreSlab := make([]Core, count*totalCores)
	sockPtrs := make([]*Socket, count*nsk)
	corePtrs := make([]*Core, count*totalCores)
	out := make([]*System, count)
	ci := 0
	for k := range sysSlab {
		n := &sysSlab[k]
		sockets := sockPtrs[k*nsk : (k+1)*nsk : (k+1)*nsk]
		for i := 0; i < nsk; i++ {
			sk := &sockSlab[k*nsk+i]
			ncore := len(s.sockets[i].cores)
			cores := corePtrs[ci : ci+ncore : ci+ncore]
			for j := 0; j < ncore; j++ {
				cores[j] = &coreSlab[ci+j]
			}
			ci += ncore
			sk.cores = cores
			sockets[i] = sk
		}
		n.sockets = sockets
		n.msrDev = s.msrDev.Fork(n)
		out[k] = n
	}
	return out
}

// populateFork overwrites child n (a recycled pooled child or a fresh
// shell) with a fork of s. The caller must have run forkPrep and
// cow.Bump first; one bump may cover a whole batch of populate calls.
func (s *System) populateFork(n *System, reused bool) {
	var eng *sim.Engine
	if reused {
		eng = n.Engine
		eng.ResetToFork(s.Engine)
	} else {
		eng = s.Engine.Fork()
	}
	sockets := n.sockets
	device := n.msrDev
	// Harvest the old child's private System-level scratch before the
	// overwrite (nil on a fresh shell; refreshPackageStates rewrites it
	// through a cap check before any read).
	statesBuf := n.statesBuf

	*n = System{
		Engine:        eng,
		cfg:           s.cfg,
		sockets:       sockets,
		mlay:          s.mlay,
		msrDev:        device,
		meter:         s.meter, // sample history COW (stale after the Bump)
		rng:           s.rng,
		lastIntegrate: s.lastIntegrate,
		acJoules:      s.acJoules,
		lastACPower:   s.lastACPower,
		epb:           s.epb,
		pool:          s.pool,
		releaseTo:     s.pool,
		statesBuf:     statesBuf,
		trace:         s.trace.Clone(),
		eprof:         s.eprof.Fork(),
		raplJoules:    s.raplJoules,
	}
	if reused {
		s.msrDev.ForkInto(device, n)
	}
	// The cloned collector carries the parent's cumulative counters;
	// baseline the child's flush marks there so the child reports only
	// its own post-fork spans to obs (the parent flushes its own
	// pre-fork deltas on its next Run).
	n.traceSpansFlushed = n.trace.SpansRecorded()
	n.traceSpanDropsFlushed = n.trace.SpanDrops()
	n.traceEventDropsFlushed = n.trace.EventDrops()
	if n.eprof != nil {
		n.eprofSegsFlushed = n.eprof.Segments()
	}

	for i, sk := range s.sockets {
		sk.forkInto(n.sockets[i], n)
	}

	// Re-arm the platform timers on the child engine at their parent
	// (time, sequence) coordinates; arg-encoded Handler events, so no
	// closures are built.
	ncpu := s.CPUs()
	for i, sk := range s.sockets {
		nsk := n.sockets[i]
		nsk.tickEv = n.Engine.RearmHandler(sk.tickEv, n, ncpu+sk.Index)
		for j, c := range sk.cores {
			if s.Engine.IsPending(c.completeEv) {
				nsk.cores[j].completeEv = n.Engine.RearmHandler(c.completeEv, n, c.CPU)
			}
		}
	}
	n.meterEv = n.Engine.RearmHandler(s.meterEv, n, ncpu+len(s.sockets))
}

// forkCopiedBytes estimates the bytes a fork copies eagerly: the
// struct shells (System, sockets, cores) plus the MSR register file
// share. Copy-on-write backings are excluded — they are charged to
// whichever side writes first.
func (s *System) forkCopiedBytes() int64 {
	b := int64(unsafe.Sizeof(System{}))
	for _, sk := range s.sockets {
		b += int64(unsafe.Sizeof(Socket{}))
		b += int64(len(sk.cores)) * int64(unsafe.Sizeof(Core{}))
	}
	b += int64(s.msrDev.FileWords()) * 8
	return b
}

// forkInto clones this socket onto child-system storage with a struct
// copy plus fixups. Immutable structure (spec, topology, cache/IMC
// model) is shared by pointer; slice-backed component state rides the
// copy as stale copy-on-write shares, except for the residency slab
// and the p-state transition rings, which are privatized eagerly into
// storage harvested from the recycled child. Eager privatization on
// every fork is what makes the harvest sound: by induction every
// pooled child's backing is private, so reusing it can never touch a
// live sibling. The child starts with the integration memo
// invalidated — its first segment runs the full path, which the replay
// contract guarantees is bit-for-bit identical to replaying the
// dropped memo.
func (sk *Socket) forkInto(nk *Socket, sys *System) {
	cores := nk.cores // preserve the child's own core storage
	// Harvest the old child's private backings before the struct copy
	// overwrites the pointers. All of these are private to the old
	// child by construction: the scratch buffers and memo slices are
	// (re)allocated by the child's own integration after forkInto nils
	// or rewrites them, and the residency slab is seated below.
	residSlab := nk.residSlab
	oldMemo := nk.memo
	eplanEntries := nk.eplan.Detach()
	loadsBuf, coresBuf, statesBuf, resultsBuf, telCores :=
		nk.loadsBuf, nk.coresBuf, nk.statesBuf, nk.resultsBuf, nk.telCores

	*nk = *sk
	nk.sys = sys
	nk.cores = cores
	// Events belong to the parent engine; Fork re-arms them explicitly.
	nk.tickEv = sim.EventID{}
	// Scratch and memo state is private, not COW: reseat the harvested
	// old-child storage in place of the parent's. Every one of these is
	// rewritten through a cap check before its first read (the memo via
	// ComputeMemoized on the forced-full first segment), so stale
	// contents are unreachable.
	nk.opDirty = true
	nk.segValid = false
	nk.memo = oldMemo
	// The attribution plan points at the parent collector's buckets and
	// is invalid in the child (opDirty forces a rebuild before the first
	// Apply); reseat the harvested private backing.
	nk.eplan.Attach(eplanEntries)
	nk.Power.ResetScratch()
	nk.loadsBuf, nk.coresBuf, nk.statesBuf, nk.resultsBuf, nk.telCores =
		loadsBuf, coresBuf, statesBuf, resultsBuf, telCores
	// The harvested load entries are the old child's: rebuild them on
	// the first full segment rather than refreshing them in place.
	nk.loadsStale = true
	// The harvested telemetry buffer holds the old child's values, not
	// the parent's: force a rebuild on the child's first grid tick.
	nk.telBuilt = 0
	// Forked sockets count their own integration segments from zero.
	nk.statReplay, nk.statFull = 0, 0
	nk.statReplayFlushed, nk.statFullFlushed = 0, 0

	// Residency: one contiguous slab per socket, eagerly copied from
	// the parent so the per-segment add() path needs no barrier.
	bins := residencyBins(sk.Spec)
	need := len(cores) * bins
	if cap(residSlab) >= need {
		residSlab = residSlab[:need]
	} else {
		residSlab = make([]sim.Time, need)
	}
	nk.residSlab = residSlab

	for j, c := range sk.cores {
		nc := cores[j]
		ring := nc.dom.DetachLog() // old child's private ring storage
		*nc = *c
		nc.sk = nk
		nc.completeEv = sim.EventID{}
		seg := residSlab[j*bins : (j+1)*bins : (j+1)*bins]
		copy(seg, c.resid.pstate)
		nc.resid.pstate = seg
		nc.dom.ForkLogInto(ring)
	}
}
