package main

// The traced run's span recorder: one span around every layer call the
// benchmark makes (name, layer, start, end, parent, shared op id), kept
// in memory and written out as JSON lines when the run ends. A layer's
// self time is its spans' durations minus the part of each interval
// its child spans cover.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Times are offsets from the
// recorder's start.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanRec records spans. A nil *spanRec records nothing, so the timed
// (untraced) rounds run the same code with tracing off.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes
// it. On a nil recorder it returns id 0 and a no-op.
func (r *spanRec) begin(name, layer string, parent, op int64) (int64, func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Since(r.t0)
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.t0)
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: start, End: end})
		r.mu.Unlock()
	}
}

// add records a span whose interval was measured elsewhere (harness
// spans, access-log timings), with absolute start and end times.
func (r *spanRec) add(name, layer string, parent, op int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return r.next
}

// newOp returns a fresh op id shared by the spans of one operation.
func (r *spanRec) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// selfTimes returns each layer's total self time: for every span, its
// duration minus the union of its children's intervals clipped to it.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// spansDir is where traced runs write their spans, relative to the
// checkout the benchmark runs in.
const spansDir = ".bench_build/spans"

// finish reports each layer's self time and writes the spans to
// spansDir/<workload>-seed<seed>.jsonl.
func (r *spanRec) finish(cfg config, rep *report) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		rep.note("self_s."+l, self[l].Seconds(), "s", "traced span self time")
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	rep.note("spans", float64(len(spans)), "count", "written to "+path)
	return nil
}
