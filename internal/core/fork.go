package core

import (
	"fmt"
	"time"
	"unsafe"

	"hswsim/internal/cow"
	"hswsim/internal/obs"
	"hswsim/internal/sim"
)

// Fork produces an independent copy of the platform whose future
// evolution is bitwise-identical to continuing the original: same
// virtual clock, same event tie-break order, same RNG streams, same
// component state. Parent and child then diverge only through the
// operations applied to each — the foundation for running sweep points
// concurrently from one warmed-up platform.
//
// Mechanically, a fork is one cow.Bump plus struct copies into fresh
// child storage: every component is embedded by value in its
// socket/core shell, and the remaining internal slices and maps
// (p-state transition rings, trace rings, meter samples, PCU
// bookkeeping, the MSR register file) are stamped with a fork
// generation and copied lazily by the first write on either side. Only
// the residency bins are copied eagerly, and each socket's private
// integration scratch starts empty. The child owns what it allocates
// and nothing else; it is reclaimed by the GC like any other value.
// The pending platform timers (per-socket PCU grid tick, meter sample,
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
// RunUntil ends with an integrateTo) Fork leaves the parent read-only,
// so many goroutines may fork the same parent concurrently.
func (s *System) Fork() (*System, error) {
	out, err := s.ForkN(1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ForkN forks count children in one batch: their shells are
// slab-allocated together (one System/Socket/Core slab each for the
// whole batch instead of per-child allocations), and a single
// generation bump covers every child — one global-counter increment
// per batch rather than per fork, with identical copy-on-write
// semantics, since any bump stales every sharer and each first writer
// copies out privately regardless of how many siblings the bump
// created. This is the fan-out path for fleet-scale forking (see
// internal/fleet); for a single child it is Fork.
func (s *System) ForkN(count int) ([]*System, error) {
	if count <= 0 {
		return nil, nil
	}
	start := time.Now()
	if err := s.forkPrep(); err != nil {
		return nil, err
	}
	out := s.newChildShells(count)
	// One generation bump freezes every copy-on-write backing shared
	// below; individual Clone calls bump again, which is harmless.
	cow.Bump()
	for _, n := range out {
		s.populateFork(n)
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

// newChildShells bulk-allocates count fresh child skeletons with this
// system's socket/core geometry: the System/Socket/Core structs and
// their pointer slices come from one slab each for the whole batch, so
// a 1000-child fan-out costs six slice allocations plus per-child MSR
// devices instead of six allocations per child.
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

// populateFork overwrites the fresh shell n with a fork of s. The
// caller must have run forkPrep and cow.Bump first; one bump may cover
// a whole batch of populate calls.
func (s *System) populateFork(n *System) {
	*n = System{
		Engine:        s.Engine.Fork(),
		cfg:           s.cfg,
		sockets:       n.sockets,
		mlay:          s.mlay,
		msrDev:        n.msrDev,
		meter:         s.meter, // sample history COW (stale after the Bump)
		rng:           s.rng,
		lastIntegrate: s.lastIntegrate,
		acJoules:      s.acJoules,
		lastACPower:   s.lastACPower,
		epb:           s.epb,
		trace:         s.trace.Clone(),
		eprof:         s.eprof.Fork(),
		raplJoules:    s.raplJoules,
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

// forkInto clones this socket onto the child shell nk with a struct
// copy plus fixups. Immutable structure (spec, topology, cache/IMC
// model) is shared by pointer; slice-backed component state rides the
// copy as stale copy-on-write shares, except for the residency slab,
// which is copied eagerly so the per-segment add() path needs no
// barrier. The child's integration scratch starts empty and its memo
// invalidated — its first segment runs the full path, which the replay
// contract guarantees is bit-for-bit identical to replaying the
// dropped memo.
func (sk *Socket) forkInto(nk *Socket, sys *System) {
	cores := nk.cores // the shell's own core storage
	*nk = *sk
	nk.sys = sys
	nk.cores = cores
	// Events belong to the parent engine; Fork re-arms them explicitly.
	nk.tickEv = sim.EventID{}
	// Scratch and memo state is private, not COW: drop the parent's
	// backings wholesale. The attribution plan in it points at the
	// parent collector's buckets; opDirty forces a rebuild before the
	// first Apply.
	nk.socketScratch = socketScratch{}
	nk.Power.ResetScratch()
	nk.opDirty = true
	nk.segValid = false
	// Rebuild the load entries on the first full segment rather than
	// refreshing them in place.
	nk.loadsStale = true
	// The emptied telemetry buffer holds none of the parent's values:
	// force a rebuild on the child's first grid tick.
	nk.telBuilt = 0
	// Forked sockets count their own integration segments from zero.
	nk.statReplay, nk.statFull = 0, 0
	nk.statReplayFlushed, nk.statFullFlushed = 0, 0

	bins := residencyBins(sk.Spec)
	nk.residSlab = make([]sim.Time, len(cores)*bins)
	for j, c := range sk.cores {
		nc := cores[j]
		*nc = *c
		nc.sk = nk
		nc.completeEv = sim.EventID{}
		seg := nk.residSlab[j*bins : (j+1)*bins : (j+1)*bins]
		copy(seg, c.resid.pstate)
		nc.resid.pstate = seg
	}
}
