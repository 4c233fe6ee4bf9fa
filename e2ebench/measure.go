package main

// Host-side measurement shared by every workload: wall, CPU, allocation
// and GC deltas over a round, the round loop that fills the time
// budget, percentile helpers, set-up timing through child processes,
// and the report that prints metrics and the final JSON line.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's resource use.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	numGC   uint32
	pauseNS uint64
}

// delta is the resource use between two readings.
type delta struct {
	wall, cpu time.Duration
	allocB    uint64
	gcs       uint32
	pauseNS   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

func (a usage) to(b usage) delta {
	return delta{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		allocB:  b.alloc - a.alloc,
		gcs:     b.numGC - a.numGC,
		pauseNS: b.pauseNS - a.pauseNS,
	}
}

func (d *delta) add(o delta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocB += o.allocB
	d.gcs += o.gcs
	d.pauseNS += o.pauseNS
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRounds calls round until the budget is spent and returns each
// round's resource use, with the host clock probe's median over the
// rounds (see clock.go). A round is a fixed amount of work, so rounds
// are comparable; another round starts only while the previous one's
// wall time still fits in the remaining budget, so a run overshoots its
// budget by less than one round. At least one round always runs. After
// each round, between is called untimed with the share of the budget
// spent so far.
func runRounds(budget time.Duration, round func() error, between func(spent float64) error) ([]delta, float64, error) {
	var out []delta
	clock := startClockProbe()
	start := time.Now()
	for {
		before := readUsage()
		err := round()
		if err == nil {
			out = append(out, before.to(readUsage()))
			err = between(float64(time.Since(start)) / float64(budget))
		}
		if err != nil || time.Since(start)+out[len(out)-1].wall > budget {
			chainNS, _ := clock.stop()
			return out, chainNS, err
		}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundMedians returns the median wall seconds, CPU seconds and
// allocated MiB of a set of rounds.
func roundMedians(ds []delta) (wallS, cpuS, allocMB float64) {
	var w, c, a []float64
	for _, d := range ds {
		w = append(w, d.wall.Seconds())
		c = append(c, d.cpu.Seconds())
		a = append(a, float64(d.allocB)/(1<<20))
	}
	return median(w), median(c), median(a)
}

// percentile returns the nearest-rank p-th percentile of sorted
// samples, and the number of samples above that rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail returns the highest nearest-rank percentile of sorted samples
// with at least minBeyond samples beyond it: the value at rank
// n-minBeyond, at percentile 100*(n-minBeyond)/n. The percentile moves
// smoothly with the sample count, so runs of slightly different length
// report nearly the same percentile. With minBeyond samples or fewer it
// returns the maximum, reported as percentile 100.
func tail(sorted []float64) (p, v float64, beyond int) {
	n := len(sorted)
	if n <= minBeyond {
		if n == 0 {
			return 100, 0, 0
		}
		return 100, sorted[n-1], 0
	}
	rank := n - minBeyond
	return 100 * float64(rank) / float64(n), sorted[rank-1], minBeyond
}

// setupProbes is how many child processes time a workload's set-up.
const setupProbes = 25

// setupTimer times a workload's set-up from outside. Each probe starts
// this binary in probe mode; the child sets the workload up, reports
// the CPU time it has used and exits, and is waited for before the next
// probe starts. The probes are spread over the run, between rounds, so
// they sample the same stretch of host time as the rounds do.
type setupTimer struct {
	workload  string
	exe       string
	cpu, wall []float64 // seconds, one per probe
}

func newSetupTimer(workload string) (*setupTimer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	return &setupTimer{workload: workload, exe: exe}, nil
}

// probe runs one child: wall time from process start until it reports
// ready, and the CPU time (user+sys, all threads) it reports.
func (s *setupTimer) probe() error {
	cmd := exec.Command(s.exe, "--probe-setup", s.workload)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("setup probe: %w", err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("setup probe: %w", err)
	}
	line, rerr := bufio.NewReader(pipe).ReadString('\n')
	elapsed := time.Since(start)
	if _, err := io.Copy(io.Discard, pipe); err != nil && rerr == nil {
		rerr = err
	}
	werr := cmd.Wait()
	word, cpuNS, _ := strings.Cut(strings.TrimSpace(line), " ")
	ns, perr := strconv.ParseInt(cpuNS, 10, 64)
	if rerr != nil || werr != nil || word != "ready" || perr != nil {
		return fmt.Errorf("setup probe %s failed: read=%v wait=%v line=%q", s.workload, rerr, werr, line)
	}
	s.wall = append(s.wall, elapsed.Seconds())
	s.cpu = append(s.cpu, float64(ns)/1e9)
	return nil
}

// catchUp runs probes until their share of setupProbes reaches spent,
// the share of the run's budget used so far (at most all of them).
func (s *setupTimer) catchUp(spent float64) error {
	for float64(len(s.cpu)) < math.Min(spent, 1)*setupProbes {
		if err := s.probe(); err != nil {
			return err
		}
	}
	return nil
}

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, prints each one by name with its
// unit as it is added, and counts attempted and failed operations.
type report struct {
	w         io.Writer
	metrics   map[string]metric
	attempted int
	failed    int
	reasons   []string
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: map[string]metric{}}
}

// add records a metric of the final JSON line and prints it.
func (r *report) add(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%-34s %16.6g %s\n", name, v, unit)
}

// note prints a metric that is not part of the final JSON line
// (workload-specific layer metrics, context such as sample counts).
func (r *report) note(name string, v float64, unit, extra string) {
	if extra != "" {
		extra = "  (" + extra + ")"
	}
	fmt.Fprintf(r.w, "%-34s %16.6g %s%s\n", name, v, unit, extra)
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.reasons) < 10 {
		r.reasons = append(r.reasons, err.Error())
	}
}

// finish prints the failure share and the first failure reasons.
func (r *report) finish(stderr io.Writer) {
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.note("fail_frac", frac, "1", fmt.Sprintf("%d of %d ops", r.failed, r.attempted))
	for _, s := range r.reasons {
		fmt.Fprintln(stderr, "e2ebench: failure:", s)
	}
}

// result is the final JSON line.
func (r *report) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics}
}

// addEndToEnd finishes the set-up probes and records the end-to-end
// metrics. Only CPU time and memory go into the final line: on a shared
// host, the time the hypervisor runs other tenants on this process's
// CPUs inflates wall time, while the kernel accounts it as steal, not
// as this process's CPU time. The CPU times are scaled to the reference
// clock by chainNS, the clock probe's median over the rounds. The raw
// CPU times and the wall-clock figures a user waits for are printed
// beside them. latencies are the per-op wall times in milliseconds (nil
// where ops are not alike, as in suite); ops is the number of ops
// completed over the rounds.
func (r *report) addEndToEnd(st *setupTimer, rounds []delta, chainNS float64, ops int, latencies []float64, opName string) error {
	if err := st.catchUp(1); err != nil {
		return err
	}
	if chainNS <= 0 {
		return fmt.Errorf("host clock probe took no samples")
	}
	toRef := refChainNS / chainNS
	wallS, cpuS, allocMB := roundMedians(rounds)
	var total time.Duration
	for _, d := range rounds {
		total += d.wall
	}
	r.add("setup_s", median(st.cpu)*toRef, "s")
	r.add("cpu_ref_s", cpuS*toRef, "s")
	r.add("max_rss_mb", maxRSSMB(), "MiB")
	r.note("host.chain_ns", chainNS, "ns", fmt.Sprintf("clock probe median; scaled times are at %d ns", refChainNS))
	r.note("setup_cpu_s", median(st.cpu), "s", fmt.Sprintf("median of %d probes, unscaled", len(st.cpu)))
	r.note("setup_wall_s", median(st.wall), "s", "the same probes, start to ready")
	r.note("cpu_s", cpuS, "s", "per-round median, unscaled")
	r.note("wall_s", wallS, "s", "per-round median")
	r.note("ops_per_s", float64(ops)/total.Seconds(), "1/s", fmt.Sprintf("%d ops", ops))
	if latencies != nil {
		sort.Float64s(latencies)
		p50, _ := percentile(latencies, 50)
		tp, tv, beyond := tail(latencies)
		r.note("op_p50_ms", p50, "ms", "")
		r.note("op_tail_ms", tv, "ms", fmt.Sprintf("p%.4g of %d %s samples, %d beyond", tp, len(latencies), opName, beyond))
	}
	r.note("alloc_mb", allocMB, "MiB", "per-round median; runtime.alloc_mb in the traced run")
	r.note("rounds", float64(len(rounds)), "count", "cpu_s, wall_s and alloc_mb are per-round medians")
	return nil
}
