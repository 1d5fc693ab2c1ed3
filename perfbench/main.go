// Command perfbench is the repository's serving benchmark. It drives seeded
// burst workloads through the public facade (hetero2pipe.System: RunFleet /
// RunStream) in a closed loop with one client, checks every burst's
// outputs, and reports host-time metrics (what the serving stack costs on
// the machine running it) next to simulated metrics from the virtual
// clock (plan quality). With --trace 1 it instead runs the traced ledger:
// spans and request tracing armed, per-layer self times reconciled against
// the burst wall time, and per-layer counts from the public results.
//
//	perfbench --workload fleet-steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	h2p "hetero2pipe"
)

// setupReps is how many times a timed run builds its System and warms it
// up; setup_s is the median.
const setupReps = 3

// minReplays is how many times the timed loop replays the input cycle at
// least, whatever --seconds says. The burst quantiles are taken over the
// cycle's bursts, each timed as the median of its replays, so a few seconds
// of interference from outside the process move single replays, not the
// reported figures.
const minReplays = 3

// maxProcs caps GOMAXPROCS and planner parallelism, so figures from
// machines with more cores stay comparable.
const maxProcs = 2

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "how long the timed loop measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the timed run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// report is the result every run mode fills in.
type report struct {
	Metrics   metricSet
	Attempted int
	Failed    int
	// Problems are check failures, printed to standard error.
	Problems []string
	// Extra are informational lines printed before the metrics.
	Extra []string
}

func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	procs := min(maxProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	w := workloadByName(o.workload)

	mode := "timed (metrics registry armed; spans and request tracing off)"
	if o.trace {
		mode = "traced ledger (metrics, spans and request tracing armed)"
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d mode=%s\n", w.Name, o.seed, o.seconds, mode)
	fmt.Printf("  go=%s GOMAXPROCS=%d nproc=%d planner-parallelism=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), procs)
	fmt.Printf("  load: closed loop, 1 client, %d requests per burst, input cycle of %d bursts; "+
		"warm-up = %d untimed pass(es) over the cycle, counted in setup_s\n", burstSize, w.Frames, 1)
	fmt.Printf("  why: %s\n", w.Why)

	ctx := context.Background()
	var rep *report
	if o.trace {
		rep, err = runTraced(ctx, w, o, procs)
	} else {
		rep, err = runTimed(ctx, w, o, procs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range rep.Extra {
		fmt.Println(line)
	}
	fmt.Print(rep.Metrics.table("  "))
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// resultLine renders the final JSON object. Every metric must be finite.
func resultLine(rep *report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   rep.Failed == 0 && len(rep.Problems) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]value),
	}
	for _, m := range rep.Metrics.list {
		if m.TextOnly {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is not finite", m.Name)
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// allocReader reads the runtime's cumulative heap-allocation counter
// without stopping the world.
type allocReader struct {
	sample []metrics.Sample
}

func newAllocReader() *allocReader {
	return &allocReader{sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (a *allocReader) read() uint64 {
	metrics.Read(a.sample)
	return a.sample[0].Value.Uint64()
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat: all
// ticks and the ticks stolen by the hypervisor for other guests. ok is
// false where the file is missing or unparsable.
func cpuTicks() (total, steal uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter reports the share of machine CPU time stolen by the
// hypervisor over an interval: host-time figures from a run with a large
// share were measured on a machine busy with other work.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTicks()
	return stealMeter{t, s, ok}
}

func (m stealMeter) line() string {
	t, s, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return "  hypervisor steal during the timed loop: n/a"
	}
	return fmt.Sprintf("  hypervisor steal during the timed loop: %.1f%% of machine CPU time", 100*float64(s-m.steal)/float64(t-m.total))
}

// warmSystem builds a System and runs one untimed pass over the input
// cycle, returning the set-up wall time (build plus warm-up calls, checks
// excluded) and each input's output digest.
func warmSystem(ctx context.Context, w *workloadSpec, cfg sysConfig, inputs [][]h2p.StreamRequest, rep *report) (*h2p.System, time.Duration, []uint64, error) {
	t0 := time.Now()
	sys, err := w.build(w, cfg)
	setup := time.Since(t0)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("building %s: %w", w.Name, err)
	}
	digests := make([]uint64, len(inputs))
	for f, reqs := range inputs {
		t := time.Now()
		out, err := runBurst(ctx, w, sys, reqs)
		setup += time.Since(t)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("warm-up burst %d: %w", f, err)
		}
		if bad, p := checkBurst(reqs, out, cfg.tracing); bad > 0 {
			rep.problem("warm-up burst %d: %s", f, p)
		}
		digests[f] = digest(out)
	}
	return sys, setup, digests, nil
}

// runTimed is the untraced run behind every end-to-end metric.
func runTimed(ctx context.Context, w *workloadSpec, o options, procs int) (*report, error) {
	rep := &report{}
	inputs, err := w.inputs(w, o.seed)
	if err != nil {
		return nil, err
	}

	var sys *h2p.System
	var want []uint64
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		sys = nil
		runtime.GC()
		s, setup, digests, err := warmSystem(ctx, w, sysConfig{procs: procs, metrics: h2p.NewMetricsRegistry("perfbench")}, inputs, rep)
		if err != nil {
			return nil, err
		}
		if want != nil && !equalDigests(want, digests) {
			rep.problem("set-up %d: warm-up outputs differ from set-up 0", r)
		}
		sys, want = s, digests
		setups = append(setups, setup.Seconds())
	}
	runtime.GC()

	allocs := newAllocReader()
	burstMS := make([]float64, 0, 1<<16)
	var wall time.Duration
	var allocBytes uint64
	var sim simTotals
	completed := 0
	steal := startSteal()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for b := 0; b < minReplays*w.Frames || time.Now().Before(deadline); b++ {
		f := b % w.Frames
		reqs := inputs[f]
		a0 := allocs.read()
		t0 := time.Now()
		out, err := runBurst(ctx, w, sys, reqs)
		el := time.Since(t0)
		allocBytes += allocs.read() - a0
		wall += el
		burstMS = append(burstMS, float64(el)/float64(time.Millisecond))
		rep.Attempted += len(reqs)
		if err != nil {
			rep.Failed += len(reqs)
			rep.problem("burst %d: %v", b, err)
			continue
		}
		bad, p := checkBurst(reqs, out, false)
		if bad == 0 && digest(out) != want[f] {
			bad, p = len(reqs), fmt.Sprintf("burst %d replays input %d with different outputs", b, f)
		}
		if bad > 0 {
			rep.Failed += bad
			rep.problem("burst %d: %s", b, p)
		}
		completed += len(reqs) - bad
		if b < w.Frames {
			sim.add(reqs, out)
		}
	}

	rep.Extra = append(rep.Extra, steal.line())
	m := &rep.Metrics
	bursts := len(burstMS)
	perBurst := replayMedians(burstMS, w.Frames)
	p50, p99 := nearestRank(perBurst, 50), nearestRank(perBurst, 99)
	replays := fmt.Sprintf("each the median of its %d or more replays", bursts/w.Frames)
	m.add("host_req_per_s", float64(completed)/wall.Seconds(), "req/s",
		fmt.Sprintf("%d requests / %.3f s in %d bursts", completed, wall.Seconds(), bursts))
	m.add("host_burst_p50_ms", p50.Value, "ms", fmt.Sprintf("n=%d bursts, %s", p50.N, replays))
	m.add("host_burst_p99_ms", p99.Value, "ms", fmt.Sprintf("n=%d bursts, %d beyond, %s", p99.N, p99.Beyond, replays))
	m.add("host_alloc_kb_per_req", float64(allocBytes)/1024/float64(rep.Attempted), "KiB/req",
		fmt.Sprintf("n=%d requests", rep.Attempted))
	m.add("setup_s", nearestRank(setups, 50).Value, "s", fmt.Sprintf("median of %d set-ups (build + warm-up pass)", len(setups)))
	sim.metrics(m)
	// fail_frac is 0 on a correct program, so it is printed but not a
	// result-line metric; the result line carries attempted and failed.
	m.addRatio("fail_frac", ratio{float64(rep.Failed), float64(rep.Attempted)}, "failed/attempted")
	m.list[len(m.list)-1].TextOnly = true
	rep.Extra = append(rep.Extra,
		fmt.Sprintf("  sim digest over one input cycle (%d bursts): %016x", w.Frames, sim.digest), sim.deciles())

	// The live heap counts what the System retains — its caches — not the
	// benchmark's own inputs and samples, which are dropped first.
	inputs, want, burstMS, sim = nil, nil, nil, simTotals{}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sys)
	m.add("host_live_heap_mb", float64(ms.HeapAlloc)/(1<<20), "MiB", "after the run and a forced GC")
	return rep, nil
}

func equalDigests(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
