package main

// The serve workload: the hswsimd handler (server.New(...).Handler())
// on a loopback listener in this process, under a closed loop of two
// clients. Each client sends its next request only when the previous
// one has completed. The request mix comes from the seed: POST /v1/run
// for the experiments and scale the repository's own smoke client
// requests (cmd/hswsimd/smoke.go) — fresh tuples (a live run plus an
// expcache write), one fresh tuple both clients ask for at once (one
// live run, the other coalesced or a cache hit), repeats (cache reads)
// and tuples that overlap the suite's outputs — plus a small share of
// ?trace=timeline runs and GET /v1/profile. The shares are synthetic:
// no recorded traffic exists to take them from, so the four run cases
// are equally likely. The result cache is an expcache directory behind
// a timing wrapper.
//
// Every 200 body for a tuple must be byte-identical however it was
// served (live, cache, coalesced); suite tuples must match golden.json;
// a profile must decode. Errors, non-200 answers (429 sheds included)
// and mismatches all count as failed ops.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hswsim/internal/eprof"
	"hswsim/internal/exp"
	"hswsim/internal/expcache"
	"hswsim/internal/obs"
	"hswsim/internal/server"
)

// serveClients is the closed loop's client count: one per compute slot.
const serveClients = 2

// serveRoundPairs is how many requests each client sends per round.
const serveRoundPairs = 24

// serveIDs and serveScale are the experiments and effort scale the
// smoke client requests: cheap experiments at small scale.
var serveIDs = []string{"tab1", "tab3"}

const serveScale = 0.05

// serveProfileID is the experiment energy profiles are asked for: of
// serveIDs only tab3 simulates a platform, so only its profile has
// samples.
const serveProfileID = "tab3"

// serveFixedSeed is the seed of traced and profiled requests, so their
// repeats are compared.
const serveFixedSeed = 7

type reqKind int

const (
	kindRun reqKind = iota
	kindTrace
	kindProfile
)

// request is one generated request.
type request struct {
	kind  reqKind
	id    string
	scale float64
	seed  uint64
}

// key names the tuple a response is compared under.
func (r request) key() string {
	return fmt.Sprintf("%d|%s|%g|%d", r.kind, r.id, r.scale, r.seed)
}

func (r request) options() exp.Options { return exp.Options{Scale: r.scale, Seed: r.seed} }

// suiteTuple reports whether the request renders a suite output.
func (r request) suiteTuple() bool {
	return r.kind == kindRun && r.options() == suiteOpts
}

// mixGen generates the request mix: step by step, one request for each
// client. Generation depends only on the seed, never on timing.
type mixGen struct {
	rng  *rand.Rand
	hist []request // recent run tuples, the pool repeats draw from
}

func newMixGen(seed uint64) *mixGen {
	return &mixGen{rng: rand.New(rand.NewPCG(seed, 0x5e7e))}
}

func (g *mixGen) freshTuple() request {
	// A nonzero seed the mix has not used: zero means the default seed.
	r := request{kind: kindRun, id: g.pickID(), scale: serveScale, seed: g.rng.Uint64()>>1 | 1}
	g.remember(r)
	return r
}

func (g *mixGen) pickID() string { return serveIDs[g.rng.IntN(len(serveIDs))] }

func (g *mixGen) remember(r request) {
	g.hist = append(g.hist, r)
	if len(g.hist) > 32 {
		g.hist = g.hist[1:]
	}
}

func (g *mixGen) repeat() request {
	if len(g.hist) == 0 {
		return g.freshTuple()
	}
	return g.hist[g.rng.IntN(len(g.hist))]
}

// next returns the next step's requests, one per client. One step in
// ten puts a traced run or an energy profile on one client; the other
// steps are split evenly over the four run cases.
func (g *mixGen) next() [serveClients]request {
	var out [serveClients]request
	if g.rng.IntN(10) == 0 {
		r := request{kind: kindTrace, id: g.pickID(), scale: serveScale, seed: serveFixedSeed}
		if g.rng.IntN(2) == 1 {
			r.kind, r.id = kindProfile, serveProfileID
		}
		c := g.rng.IntN(serveClients)
		out[c] = r
		out[1-c] = g.repeat()
		return out
	}
	switch g.rng.IntN(4) {
	case 0: // a fresh tuple each
		for c := range out {
			out[c] = g.freshTuple()
		}
	case 1: // one fresh tuple for both clients at once
		r := g.freshTuple()
		for c := range out {
			out[c] = r
		}
	case 2: // repeats: cache reads
		for c := range out {
			out[c] = g.repeat()
		}
	default: // a suite output, pinned by golden.json
		r := request{kind: kindRun, id: g.pickID(), scale: suiteOpts.Scale, seed: suiteOpts.Seed}
		g.remember(r)
		for c := range out {
			out[c] = r
		}
	}
	return out
}

// timedCache wraps the result cache, timing every call and, on a
// traced round, recording a span for it. The server's goroutines make
// the calls, so a cache span has no parent and op 0: which request
// asked is not visible from outside.
type timedCache struct {
	dir *expcache.Dir

	mu    sync.Mutex
	stats cacheStats
	spans *spanRec
}

// cacheStats counts cache calls and their summed wall time.
type cacheStats struct {
	gets, puts int
	get, put   time.Duration
}

// since returns the calls counted in a after the reading b.
func (a cacheStats) since(b cacheStats) cacheStats {
	return cacheStats{a.gets - b.gets, a.puts - b.puts, a.get - b.get, a.put - b.put}
}

func (a *cacheStats) add(b cacheStats) {
	a.gets += b.gets
	a.puts += b.puts
	a.get += b.get
	a.put += b.put
}

var _ exp.Cache = (*timedCache)(nil)

func (c *timedCache) Get(id string, o exp.Options, csv bool) ([]byte, bool) {
	start := time.Now()
	out, ok := c.dir.Get(id, o, csv)
	d := time.Since(start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.gets++
	c.stats.get += d
	c.spans.add("expcache.Get", "expcache", 0, 0, start, start.Add(d))
	return out, ok
}

func (c *timedCache) Put(id string, o exp.Options, csv bool, output []byte) error {
	start := time.Now()
	err := c.dir.Put(id, o, csv, output)
	d := time.Since(start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.puts++
	c.stats.put += d
	c.spans.add("expcache.Put", "expcache", 0, 0, start, start.Add(d))
	return err
}

// trace installs the span recorder (nil stops recording) and returns
// the counts so far.
func (c *timedCache) trace(spans *spanRec) cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = spans
	return c.stats
}

// lockedBuffer is the access log: the server writes lines, the
// benchmark reads them between rounds.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) take() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.buf.String()
	b.buf.Reset()
	return s
}

// service is one in-process hswsimd instance with its clients.
type service struct {
	dir    string
	cache  *timedCache
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	access *lockedBuffer
}

// startService opens a result cache in a fresh temp directory, builds
// the server, starts its listener and waits for the first /healthz.
func startService(spans *spanRec) (*service, error) {
	op := spans.newOp()
	s := &service{access: &lockedBuffer{}}
	dir, err := os.MkdirTemp("", "e2ebench-cache-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	_, end := spans.begin("expcache.Open", "expcache", 0, op)
	d, err := expcache.Open(dir)
	end()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.cache = &timedCache{dir: d}
	_, end = spans.begin("server.New", "server", 0, op)
	s.srv = server.New(server.Config{
		Cache:     s.cache,
		AccessLog: s.access,
		Log:       log.New(os.Stderr, "", 0),
	})
	end()
	_, end = spans.begin("listen", "server", 0, op)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	end()
	if err != nil {
		s.srv.StartDrain()
		os.RemoveAll(dir)
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	// The timeout turns a wedged request into a failed op instead of a
	// run that never ends.
	s.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	_, end = spans.begin("GET /healthz", "server", 0, op)
	code, _, err := s.do(http.MethodGet, "/healthz", nil)
	end()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("healthz: status %d", code)
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop drains the server, shuts the listener down, waits for the serve
// loop to end and removes the cache directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// do sends one request and reads the whole body.
func (s *service) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// httpRequest maps a generated request onto method, path and body.
func httpRequest(r request) (method, path string, body []byte) {
	switch r.kind {
	case kindProfile:
		return http.MethodGet, fmt.Sprintf("/v1/profile?id=%s&scale=%g&seed=%d", r.id, r.scale, r.seed), nil
	case kindTrace:
		return http.MethodPost, "/v1/run?trace=timeline", runBody(r)
	}
	return http.MethodPost, "/v1/run", runBody(r)
}

func runBody(r request) []byte {
	return []byte(fmt.Sprintf(`{"id":%q,"scale":%g,"seed":%d}`, r.id, r.scale, r.seed))
}

// serveRun is the state of one serve workload run.
type serveRun struct {
	svc    *service
	gen    *mixGen
	mu     sync.Mutex
	bodies map[string]string // tuple key → sha256 of its first 200 body
	latMS  []float64
	ops    int
	// access holds the access-log lines of the rounds so far.
	access []accessLine
}

// check compares a 200 body with the first one for its tuple and, for
// suite tuples and profiles, with the reference.
func (sr *serveRun) check(r request, body []byte) error {
	switch {
	case r.suiteTuple():
		if err := checkExperiment(r.id, body); err != nil {
			return err
		}
	case r.kind == kindProfile:
		p, err := eprof.Parse(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("profile %s: %w", r.id, err)
		}
		if len(p.Samples) == 0 {
			return fmt.Errorf("profile %s: no samples", r.id)
		}
	}
	h := sha(body)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if first, ok := sr.bodies[r.key()]; !ok {
		sr.bodies[r.key()] = h
	} else if first != h {
		return fmt.Errorf("%s: body %s differs from the tuple's first 200 body %s", r.key(), h[:16], first[:16])
	}
	return nil
}

// opResult is one completed request.
type opResult struct {
	err     error
	latency time.Duration
}

// round sends serveRoundPairs requests from each client in a closed
// loop and returns when both clients are done. On a traced round each
// request gets a span.
func (sr *serveRun) round(rep *report, spans *spanRec) {
	steps := make([][serveClients]request, serveRoundPairs)
	for i := range steps {
		steps[i] = sr.gen.next()
	}
	results := make([][]opResult, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, st := range steps {
				r := st[c]
				method, path, body := httpRequest(r)
				start := time.Now()
				_, end := spans.begin(method+" "+strings.SplitN(path, "?", 2)[0], "server", 0, spans.newOp())
				code, out, err := sr.svc.do(method, path, body)
				end()
				lat := time.Since(start)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("%s %s: status %d: %s", method, path, code, strings.TrimSpace(string(out)))
				}
				if err == nil {
					err = sr.check(r, out)
				}
				results[c] = append(results[c], opResult{err: err, latency: lat})
			}
		}(c)
	}
	wg.Wait()
	for c := range results {
		for _, res := range results[c] {
			rep.op(res.err)
			sr.ops++
			sr.latMS = append(sr.latMS, float64(res.latency.Nanoseconds())/1e6)
		}
	}
	sr.access = append(sr.access, parseAccessLog(sr.svc.access.take())...)
}

// accessLine is what the benchmark reads from one access-log line: the
// request's outcome and, for a request that led a live run, its slot
// queue wait and run time (whole milliseconds in the log).
type accessLine struct {
	outcome    string
	queue, run time.Duration
	timed      bool
}

// parseAccessLog reads the server's logfmt access lines.
func parseAccessLog(s string) []accessLine {
	var out []accessLine
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var l accessLine
		line := sc.Text()
		// The quoted tuple key may hold spaces and '='; drop it first.
		if i := strings.Index(line, ` key="`); i >= 0 {
			if q, err := strconv.QuotedPrefix(line[i+len(` key=`):]); err == nil {
				line = line[:i] + line[i+len(` key=`)+len(q):]
			}
		}
		for _, f := range strings.Fields(line) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			switch k {
			case "outcome":
				l.outcome = v
			case "queue_us":
				n, _ := strconv.ParseInt(v, 10, 64)
				l.queue, l.timed = time.Duration(n)*time.Microsecond, true
			case "run_ms":
				n, _ := strconv.ParseInt(v, 10, 64)
				l.run, l.timed = time.Duration(n)*time.Millisecond, true
			}
		}
		out = append(out, l)
	}
	return out
}

func newServeRun(seed uint64, spans *spanRec) (*serveRun, error) {
	svc, err := startService(spans)
	if err != nil {
		return nil, err
	}
	return &serveRun{svc: svc, gen: newMixGen(seed), bodies: map[string]string{}}, nil
}

// probeServe is the serve workload's set-up as a fresh process pays it.
func probeServe() (func() error, error) {
	svc, err := startService(nil)
	if err != nil {
		return nil, err
	}
	return svc.stop, nil
}

func timedServe(cfg config, rep *report) error {
	obs.Default().Reset()
	st, err := newSetupTimer("serve")
	if err != nil {
		return err
	}
	sr, err := newServeRun(cfg.seed, nil)
	if err != nil {
		return err
	}
	rounds, chainNS, rerr := runRounds(cfg.budget, func() error { sr.round(rep, nil); return nil }, st.catchUp)
	if err := sr.svc.stop(); rerr == nil {
		rerr = err
	}
	if rerr == nil {
		rerr = rep.addEndToEnd(st, rounds, chainNS, sr.ops, sr.latMS, "request")
	}
	if rerr != nil {
		return rerr
	}
	accessNotes(rep, sr.access)
	return nil
}

// tracedServe alternates untraced and traced rounds on one server, so
// the overhead compares like with like, then reports the serving
// layers' numbers from the traced rounds.
func tracedServe(cfg config, rep *report) error {
	obs.Default().Reset()
	t := newTracer()
	sr, err := newServeRun(cfg.seed, t.spans)
	if err != nil {
		return err
	}
	var untraced, traced []float64
	var counts cacheStats
	deadline := time.Now().Add(cfg.budget)
	var rerr error
	for len(traced) < 2 || time.Now().Before(deadline) {
		start := time.Now()
		sr.round(rep, nil)
		untraced = append(untraced, time.Since(start).Seconds())

		before := sr.svc.cache.trace(t.spans)
		if rerr = t.start(); rerr != nil {
			break
		}
		start = time.Now()
		sr.round(rep, t.spans)
		traced = append(traced, time.Since(start).Seconds())
		rerr = t.stop()
		counts.add(sr.svc.cache.trace(nil).since(before))
		if rerr != nil {
			break
		}
	}
	if err := sr.svc.stop(); rerr == nil {
		rerr = err
	}
	if rerr != nil {
		return rerr
	}
	mean := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	rep.note("expcache.get_us", mean(counts.get, counts.gets), "us", fmt.Sprintf("mean of %d", counts.gets))
	rep.note("expcache.put_us", mean(counts.put, counts.puts), "us", fmt.Sprintf("mean of %d", counts.puts))
	accessNotes(rep, sr.access)
	return t.finishTrace(cfg, rep, median(untraced), median(traced))
}

// accessNotes prints the served outcomes and the live runs' mean slot
// queue wait and run time, as the server's access log reports them.
func accessNotes(rep *report, lines []accessLine) {
	outcomes := map[string]int{}
	var queue, run time.Duration
	n := 0
	for _, l := range lines {
		if l.outcome != "" {
			outcomes[l.outcome]++
		}
		if l.timed {
			queue += l.queue
			run += l.run
			n++
		}
	}
	names := make([]string, 0, len(outcomes))
	for o := range outcomes {
		names = append(names, o)
	}
	sort.Strings(names)
	for _, o := range names {
		rep.note("server.outcome."+o, float64(outcomes[o]), "count",
			fmt.Sprintf("of %d logged requests", len(lines)))
	}
	meanMS := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e6, float64(n)) }
	rep.note("server.queue_ms", meanMS(queue), "ms", fmt.Sprintf("mean over %d live runs, from the access log", n))
	rep.note("server.run_ms", meanMS(run), "ms", fmt.Sprintf("mean over %d live runs, from the access log (whole ms)", n))
}
