package exp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"hswsim/internal/slots"
)

// renderSuite runs every experiment through RunSuite and returns the
// concatenated output exactly as cmd/experiments emits it.
func renderSuite(t *testing.T, o Options, cache Cache) []byte {
	t.Helper()
	var ids []string
	for _, d := range Suite() {
		ids = append(ids, d.ID)
	}
	var buf bytes.Buffer
	RunSuite(ids, o, false, cache, func(r SuiteResult) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		fmt.Fprintf(&buf, "==== %s ====\n", r.ID)
		buf.Write(r.Output)
		buf.WriteByte('\n')
	})
	return buf.Bytes()
}

// TestSuiteSerialVsParallelByteIdentical is the scheduler determinism
// guard: the full suite rendered with every level of parallelism
// (suite-level experiment concurrency + point-level parallelMap on the
// shared pool) must be byte-identical to the strictly sequential
// reference run (parallelWorkers = 1 degrades both levels to serial
// loops). Parallelism may only ever change wall-clock time.
func TestSuiteSerialVsParallelByteIdentical(t *testing.T) {
	o := Quick()
	par := renderSuite(t, o, nil)
	parallelWorkers = 1
	defer func() { parallelWorkers = 0 }()
	ser := renderSuite(t, o, nil)
	if !bytes.Equal(par, ser) {
		line := 1
		for i := 0; i < len(par) && i < len(ser); i++ {
			if par[i] != ser[i] {
				t.Fatalf("outputs diverge at byte %d (line %d): parallel %q vs serial %q",
					i, line, clip(par, i), clip(ser, i))
			}
			if par[i] == '\n' {
				line++
			}
		}
		t.Fatalf("outputs differ in length: parallel %d vs serial %d bytes", len(par), len(ser))
	}
}

func clip(b []byte, at int) string {
	end := at + 40
	if end > len(b) {
		end = len(b)
	}
	return string(b[at:end])
}

// TestSuiteCanonicalOrder: the table is addressed by id and rendered in
// the paper's order; ids must be unique and resolvable.
func TestSuiteCanonicalOrder(t *testing.T) {
	wantOrder := []string{"tab1", "tab2", "tab3", "tab4", "tab5",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"extensions", "catalog", "ablations", "fleet"}
	s := Suite()
	if len(s) != len(wantOrder) {
		t.Fatalf("suite has %d experiments, want %d", len(s), len(wantOrder))
	}
	for i, d := range s {
		if d.ID != wantOrder[i] {
			t.Fatalf("suite[%d] = %q, want %q", i, d.ID, wantOrder[i])
		}
		if d.Title == "" || d.Run == nil {
			t.Fatalf("descriptor %q incomplete", d.ID)
		}
		got, ok := Lookup(d.ID)
		if !ok || got.ID != d.ID {
			t.Fatalf("Lookup(%q) failed", d.ID)
		}
	}
	if _, ok := Lookup("bogus"); ok {
		t.Fatal("Lookup accepted an unknown id")
	}
}

// memCache is an in-memory Cache for runner tests. Like any Cache
// implementation it must tolerate concurrent calls from RunSuite.
type memCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	hits int
	puts int
}

func (c *memCache) key(id string, o Options, csv bool) string {
	return fmt.Sprintf("%s|%#v|%t", id, o, csv)
}

func (c *memCache) Get(id string, o Options, csv bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	out, ok := c.m[c.key(id, o, csv)]
	if ok {
		c.hits++
	}
	return out, ok
}

func (c *memCache) Put(id string, o Options, csv bool, output []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[c.key(id, o, csv)] = bytes.Clone(output)
	return nil
}

// TestRunSuiteCacheRoundTrip: a second identical run must be served
// entirely from the cache and still emit byte-identical output with
// Cached set; different options must miss.
func TestRunSuiteCacheRoundTrip(t *testing.T) {
	cache := &memCache{m: map[string][]byte{}}
	o := Quick()
	ids := []string{"tab1", "fig1", "tab3"}
	runIDs := func(o Options) ([]byte, []SuiteResult) {
		var buf bytes.Buffer
		var rs []SuiteResult
		RunSuite(ids, o, false, cache, func(r SuiteResult) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.ID, r.Err)
			}
			buf.Write(r.Output)
			rs = append(rs, r)
		})
		return buf.Bytes(), rs
	}
	first, rs := runIDs(o)
	for _, r := range rs {
		if r.Cached {
			t.Fatalf("%s: cache hit on a cold cache", r.ID)
		}
	}
	if cache.puts != len(ids) {
		t.Fatalf("puts = %d, want %d", cache.puts, len(ids))
	}
	second, rs := runIDs(o)
	for _, r := range rs {
		if !r.Cached {
			t.Fatalf("%s: expected a cache hit", r.ID)
		}
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached output differs from live output")
	}
	if cache.puts != len(ids) {
		t.Fatal("cache hits must not re-store")
	}
	// Different options are a different key: everything misses again.
	hits := cache.hits
	o2 := o
	o2.Seed++
	if _, rs = runIDs(o2); cache.hits != hits {
		t.Fatal("changed options still hit the cache")
	}
	for _, r := range rs {
		if r.Cached {
			t.Fatalf("%s: stale hit across options", r.ID)
		}
	}
}

// TestRunSuiteUnknownAndFailedContinue: an unknown id surfaces as an
// error result without stopping the rest of the request.
func TestRunSuiteUnknownAndFailedContinue(t *testing.T) {
	var got []SuiteResult
	RunSuite([]string{"tab1", "bogus", "fig1"}, Quick(), false, nil, func(r SuiteResult) {
		got = append(got, r)
	})
	if len(got) != 3 {
		t.Fatalf("emitted %d results, want 3", len(got))
	}
	if got[0].ID != "tab1" || got[0].Err != nil {
		t.Fatalf("tab1: %+v", got[0])
	}
	if got[1].ID != "bogus" || got[1].Err == nil {
		t.Fatal("unknown id did not error")
	}
	if got[2].ID != "fig1" || got[2].Err != nil || len(got[2].Output) == 0 {
		t.Fatal("experiment after the failure did not run")
	}
}

// TestRunSuiteEmitOrder: results arrive in request order regardless of
// completion order (fig1 is near-instant, tab3 is not).
func TestRunSuiteEmitOrder(t *testing.T) {
	ids := []string{"tab3", "fig1", "tab1"}
	var order []string
	RunSuite(ids, Quick(), false, nil, func(r SuiteResult) {
		order = append(order, r.ID)
	})
	if strings.Join(order, ",") != strings.Join(ids, ",") {
		t.Fatalf("emit order %v, want %v", order, ids)
	}
}

// TestWriteRendered covers both output formats.
func TestWriteRendered(t *testing.T) {
	tab := Table1()
	var text, csv bytes.Buffer
	if err := writeRendered(&text, tab, false); err != nil {
		t.Fatal(err)
	}
	if err := writeRendered(&csv, tab, true); err != nil {
		t.Fatal(err)
	}
	if text.String() != tab.String() || csv.String() != tab.CSV() {
		t.Fatal("writeRendered output mismatch")
	}
}

// errWriter fails after n bytes, for descriptor write-error paths.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("write failed")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), io.ErrShortWrite
}

// TestDescriptorWriteErrorPropagates: descriptors report writer
// failures instead of dropping output silently.
func TestDescriptorWriteErrorPropagates(t *testing.T) {
	d, _ := Lookup("tab1")
	if err := d.Run(Quick(), &errWriter{}, false); err == nil {
		t.Fatal("write error swallowed")
	}
}

// TestRunOneQueueAbsorbsSlotWait submits an experiment while every
// compute slot is held: the wait must surface as Queue, inside Elapsed,
// and not as run time.
func TestRunOneQueueAbsorbsSlotWait(t *testing.T) {
	pool := slots.New(2)
	saved := sched
	sched = pool
	defer func() { sched = saved }()
	for i := 0; i < pool.Cap(); i++ {
		pool.Acquire()
	}
	done := make(chan SuiteResult, 1)
	go func() { done <- runOne("tab1", Quick(), false, nil) }()
	const hold = 150 * time.Millisecond
	time.Sleep(hold)
	for i := 0; i < pool.Cap(); i++ {
		pool.Release()
	}
	r := <-done
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Queue < hold {
		t.Errorf("Queue = %v, want at least the %v every slot was held", r.Queue, hold)
	}
	if r.Elapsed < r.Queue {
		t.Errorf("Elapsed %v excludes Queue %v", r.Elapsed, r.Queue)
	}

	// Uncontended, the same experiment queues for no meaningful time.
	if r := runOne("tab1", Quick(), false, nil); r.Queue >= hold {
		t.Errorf("uncontended Queue = %v", r.Queue)
	}
}
