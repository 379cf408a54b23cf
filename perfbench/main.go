// Command perfbench is the repository's end-to-end benchmark. It runs one of
// three workloads — a fuzz campaign, /v1/check traffic against an in-process
// campaign server, and an open-loop timed-machine record/replay — for a fixed
// wall-clock window, checks every output it produces, and prints each metric
// as "<workload>/<metric> <value> <unit>" followed by one JSON result line.
//
//	perfbench --workload campaign|check|sim --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no instrumentation in the
// timed path. --trace 1 is a separate run that times calls into each layer's
// public functions from outside (no package under internal/ is changed for
// it) and reports the per-layer metrics, plus the tracing overhead against
// an untraced pass over the same inputs.
//
// The exit status is 0 only when every correctness check passed; a failed
// check still prints the result line, with "correct": false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times each workload builds its whole set-up; the
// median is reported as setup_s, so one slow build (page faults, a noisy
// neighbour) does not move it.
const setupRepeats = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	attempted int
	failed    int
	// problems lists every correctness failure, one line each.
	problems []string
	metrics  map[string]metric
	order    []string
	// notes are figures printed with the metrics but kept out of the JSON
	// result line, one formatted line each.
	notes []string
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness failure. Each call is one failed operation
// unless op is false (a whole-run check such as a pinned digest).
func (r *result) fail(op bool, format string, args ...any) {
	if op {
		r.failed++
	}
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "... further failures omitted")
	}
}

// env carries the run parameters every workload needs.
type env struct {
	seed    int64
	window  time.Duration
	workers int    // GOMAXPROCS, pinned to the CPU count
	tmp     string // scratch directory inside the checkout
}

func main() {
	workload := flag.String("workload", "", "campaign, check or sim")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload campaign|check|sim --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	type runner struct{ timed, traced func(*env, *result) }
	runners := map[string]runner{
		"campaign": {runCampaign, traceCampaign},
		"check":    {runCheck, traceCheck},
		"sim":      {runSim, traceSim},
	}
	rn, ok := runners[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want campaign, check or sim)\n", *workload)
		os.Exit(2)
	}

	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, window: time.Duration(*seconds) * time.Second, workers: n, tmp: tmp}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d go=%s cpu=%q\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	res := newResult()
	if *trace == 1 {
		rn.traced(e, res)
	} else {
		rn.timed(e, res)
	}
	os.RemoveAll(tmp)

	for _, name := range res.order {
		m := res.metrics[name]
		fmt.Printf("%s/%s %s %s\n", *workload, name, formatValue(m.Value), m.Unit)
	}
	for _, n := range res.notes {
		fmt.Printf("%s/%s\n", *workload, n)
	}
	fmt.Printf("%s/attempted %d\n%s/failed %d\n", *workload, res.attempted, *workload, res.failed)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	correct := len(res.problems) == 0 && res.failed == 0 && res.attempted > 0
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// cpuModel returns the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time (rusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics names read by the benchmark.
const (
	rmHeapLive  = "/gc/heap/live:bytes"
	rmGCCycles  = "/gc/cycles/total:gc-cycles"
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rmAllocB    = "/gc/heap/allocs:bytes"
	rmAllocObjs = "/gc/heap/allocs:objects"
)

// rtSnapshot is one reading of the runtime counters the per-layer metrics
// difference.
type rtSnapshot struct {
	gcCycles, allocBytes, allocObjs uint64
	gcCPU, totalCPU                 float64
	cpu                             time.Duration
	wall                            time.Time
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: rmGCCycles}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmAllocB}, {Name: rmAllocObjs}}
	metrics.Read(s)
	return rtSnapshot{
		gcCycles:   s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(),
		allocObjs:  s[4].Value.Uint64(),
		cpu:        cpuTime(),
		wall:       time.Now(),
	}
}

// rtDelta is the change in runtime counters over an interval.
type rtDelta struct {
	gcCycles, allocBytes, allocObjs float64
	gcCPUFrac                       float64
	cpu, wall                       time.Duration
}

func (a rtSnapshot) to(b rtSnapshot) rtDelta {
	d := rtDelta{
		gcCycles:   float64(b.gcCycles - a.gcCycles),
		allocBytes: float64(b.allocBytes - a.allocBytes),
		allocObjs:  float64(b.allocObjs - a.allocObjs),
		cpu:        b.cpu - a.cpu,
		wall:       b.wall.Sub(a.wall),
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}

// heapSampler records the live heap (as of the last completed GC) at op
// boundaries the workload chooses, never on a timer, so the sample set does
// not depend on how fast the ops ran.
type heapSampler struct{ mb []float64 }

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: rmHeapLive}}
	metrics.Read(s)
	h.mb = append(h.mb, float64(s[0].Value.Uint64())/(1<<20))
}

// opLog cuts a workload's completed ops into consecutive groups of a fixed
// number of completions and records, per group, the throughput, the process
// CPU time per op and a live-heap sample. The run's throughput and CPU cost
// are the medians over its groups: a stretch where the host was slow, or a
// rare very expensive input, moves a few groups rather than the whole
// figure. Safe for concurrent use.
type opLog struct {
	mu         sync.Mutex
	group      int // completions per group
	calls, ops int // in the current group
	start      time.Time
	cpu0       time.Duration
	rates      []float64 // ops per second, per group
	cpuPerOp   []float64 // ms of process CPU per op, per group
	heap       heapSampler
}

func newOpLog(group int) *opLog {
	return &opLog{group: group, start: time.Now(), cpu0: cpuTime()}
}

// done records one completion of ops operations.
func (l *opLog) done(ops int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls++
	l.ops += ops
	if l.calls < l.group {
		return
	}
	now, cpu := time.Now(), cpuTime()
	l.rates = append(l.rates, float64(l.ops)/now.Sub(l.start).Seconds())
	l.cpuPerOp = append(l.cpuPerOp, ms(cpu-l.cpu0)/float64(l.ops))
	l.heap.sample()
	l.calls, l.ops, l.start, l.cpu0 = 0, 0, now, cpu
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupMedian runs build setupRepeats times and returns the last build's
// value together with the median build time in seconds. Every build is
// complete — inputs, services, warm-up — and all but the last are torn down.
func setupMedian[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var secs []float64
	var last T
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	runtime.GC()
	return last, median(secs), nil
}

// latencyMetrics reports the medians of the cold and cached latencies (ms)
// as metrics, and their tails — p90 of cold, p99 of cached — as notes with
// their sample counts. The tails are printed, not gated: on a small shared
// host their run-to-run spread is that of the host's slow spells, wider
// than any bound that would still catch a regression.
func latencyMetrics(r *result, cold, cached []float64) {
	r.set("cold_p50_ms", median(cold), "ms")
	r.set("cached_p50_ms", median(cached), "ms")
	r.notes = append(r.notes,
		fmt.Sprintf("cold_p90_ms %s ms (%d samples, not gated)", formatValue(quantile(cold, 0.9)), len(cold)),
		fmt.Sprintf("cached_p99_ms %s ms (%d samples, not gated)", formatValue(quantile(cached, 0.99)), len(cached)))
}

// commonMetrics sets the four end-to-end metrics every workload reports.
func commonMetrics(r *result, setup float64, l *opLog) {
	r.set("setup_s", setup, "s")
	r.set("ops_per_s", median(l.rates), "1/s")
	r.set("cpu_ms_per_op", median(l.cpuPerOp), "ms")
	r.set("heap_p50_mb", median(l.heap.mb), "MB")
}
