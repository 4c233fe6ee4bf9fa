package main

// The host clock probe. On a shared host, CPU time moves with the
// host as well as with the code: with the same code, runs of this
// benchmark read 30% more CPU time per round for minutes at a time, on
// every workload, as the host's load changed. While a run measures, a
// goroutine therefore times a fixed dependent chain of integer
// operations every few milliseconds. The chain's median duration
// follows the host's clock, and the gated CPU times are scaled by it
// to a reference clock, so that runs taken in a fast phase and in a
// slow one compare. The chain does not feel contention for caches and
// memory, so that part of the host's drift remains. The raw times are
// printed beside the scaled ones.

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// chainSteps is the length of the timed chain: long enough to be
	// timed to a fraction of a percent, short enough (tens of µs) that
	// it is rarely interrupted.
	chainSteps = 10000
	// refChainNS is the reference clock the scaled times are expressed
	// at: the chain's median duration on an idle CPU of the host in
	// LEDGER.md (25.1 µs), rounded.
	refChainNS = 25000
	// probeEvery is how often the chain runs: about 0.3% of one CPU.
	probeEvery = 10 * time.Millisecond
)

// chainSink keeps the chain's result observable, so the compiler
// cannot drop the work.
var chainSink atomic.Uint64

// chain runs chainSteps rounds of xorshift, each depending on the last.
func chain(x uint64) uint64 {
	for i := 0; i < chainSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// clockProbe times the chain in the background until stopped.
type clockProbe struct {
	mu   sync.Mutex
	ns   []float64
	quit chan struct{}
	wg   sync.WaitGroup
}

func startClockProbe() *clockProbe {
	p := &clockProbe{quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		x := uint64(0x9e3779b97f4a7c15)
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			start := time.Now()
			x = chain(x)
			d := time.Since(start)
			chainSink.Store(x)
			p.mu.Lock()
			p.ns = append(p.ns, float64(d.Nanoseconds()))
			p.mu.Unlock()
		}
	}()
	return p
}

// stop ends the probe, waits for its goroutine, and returns the
// chain's median duration in nanoseconds and the number of samples.
func (p *clockProbe) stop() (medianNS float64, samples int) {
	close(p.quit)
	p.wg.Wait()
	return median(p.ns), len(p.ns)
}
