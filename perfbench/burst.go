package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	h2p "hetero2pipe"
	"hetero2pipe/internal/stream"
)

// burstOut is one burst's outputs, normalised across RunFleet and RunStream.
type burstOut struct {
	// Completions and Sojourns are indexed like the burst's requests.
	Completions, Sojourns []time.Duration
	Makespan              time.Duration
	// Results holds every stream run of the burst: one per device shard
	// (plus failover replays) for a fleet, exactly one otherwise; Devices
	// holds the fleet device index each ran on.
	Results []*h2p.StreamResult
	Devices []int
	// Assignments is the fleet router's shard split (nil off the fleet).
	Assignments [][]int
	// Timelines is set when request tracing is armed.
	Timelines []h2p.RequestTimeline
}

// runBurst submits one burst through the public facade and waits for it.
func runBurst(ctx context.Context, w *workloadSpec, sys *h2p.System, reqs []h2p.StreamRequest) (*burstOut, error) {
	if w.Fleet {
		res, err := sys.RunFleetContext(ctx, reqs)
		if err != nil {
			return nil, err
		}
		out := &burstOut{
			Completions: res.Completions,
			Sojourns:    res.Sojourns,
			Makespan:    res.Makespan,
			Assignments: res.Assignments,
			Timelines:   res.Timelines,
		}
		for d, r := range res.PerDevice {
			if r != nil {
				out.Results = append(out.Results, r)
				out.Devices = append(out.Devices, d)
			}
			for _, h := range res.HandoffResults[d] {
				out.Results = append(out.Results, h)
				out.Devices = append(out.Devices, d)
			}
		}
		return out, nil
	}
	res, err := sys.RunStreamContext(ctx, reqs, h2p.StreamConfig{})
	if err != nil {
		return nil, err
	}
	return &burstOut{
		Completions: res.Completions,
		Sojourns:    res.Sojourns,
		Makespan:    res.Makespan,
		Results:     []*h2p.StreamResult{res},
		Devices:     []int{0},
		Timelines:   res.Timelines,
	}, nil
}

// checkBurst verifies one burst's outputs and returns how many of its
// requests fail, with a description of the first problem. The checks:
// every request completes exactly once, at or after its arrival, with the
// reported sojourn; the makespan is the last completion; every window's
// energy is finite and non-negative; the deadline-miss count matches the
// sojourns; and, when traced, every request's sojourn decomposition sums
// exactly to its sojourn.
func checkBurst(reqs []h2p.StreamRequest, out *burstOut, traced bool) (int, string) {
	n := len(reqs)
	if out == nil {
		return n, "no output"
	}
	if len(out.Completions) != n || len(out.Sojourns) != n {
		return n, fmt.Sprintf("%d completions / %d sojourns for %d requests", len(out.Completions), len(out.Sojourns), n)
	}
	failed := make([]bool, n)
	problem := ""
	fail := func(i int, format string, args ...any) {
		failed[i] = true
		if problem == "" {
			problem = fmt.Sprintf(format, args...)
		}
	}
	failAll := func(format string, args ...any) {
		for i := range failed {
			failed[i] = true
		}
		if problem == "" {
			problem = fmt.Sprintf(format, args...)
		}
	}

	var last time.Duration
	misses := 0
	for i, r := range reqs {
		c := out.Completions[i]
		switch {
		case c <= 0:
			fail(i, "request %d never completed", i)
		case c < r.Arrival:
			fail(i, "request %d completed at %v before arriving at %v", i, c, r.Arrival)
		case out.Sojourns[i] != c-r.Arrival:
			fail(i, "request %d sojourn %v != completion-arrival %v", i, out.Sojourns[i], c-r.Arrival)
		}
		last = max(last, c)
		if r.Deadline > 0 && out.Sojourns[i] > r.Deadline {
			misses++
		}
	}
	if out.Makespan != last {
		failAll("makespan %v != last completion %v", out.Makespan, last)
	}

	completed, reported := 0, 0
	for _, res := range out.Results {
		if res.Halted || len(res.Unfinished) > 0 {
			failAll("a device run halted with %d requests unfinished", len(res.Unfinished))
		}
		for _, ws := range res.WindowStats {
			completed += ws.Completed
			if e := ws.Objective.EnergyJoules; math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				failAll("window energy %g J is not finite and non-negative", e)
			}
		}
		reported += res.DeadlineMisses
	}
	if completed != n {
		failAll("windows completed %d requests, want each of %d exactly once", completed, n)
	}
	if reported != misses {
		failAll("runs report %d deadline misses, sojourns give %d", reported, misses)
	}

	if traced {
		if len(out.Timelines) != n {
			failAll("%d request timelines for %d requests", len(out.Timelines), n)
		} else {
			for i, tl := range out.Timelines {
				done := 0
				for _, ev := range tl.Events {
					if ev.Phase == stream.PhaseCompleted {
						done++
					}
				}
				switch {
				case !tl.Completed || done != 1:
					fail(i, "request %d timeline completed=%v with %d completion events", i, tl.Completed, done)
				case tl.Sojourn != out.Sojourns[i]:
					fail(i, "request %d timeline sojourn %v != %v", i, tl.Sojourn, out.Sojourns[i])
				case tl.Breakdown.VirtualSum() != tl.Sojourn:
					fail(i, "request %d sojourn split sums to %v, sojourn %v", i, tl.Breakdown.VirtualSum(), tl.Sojourn)
				}
			}
		}
	}

	bad := 0
	for _, f := range failed {
		if f {
			bad++
		}
	}
	return bad, problem
}

// digest hashes a burst's simulated outputs: every completion instant and
// the makespan. Replays of one input must hash identically; a change to any
// plan shows up here even when no metric moves.
func digest(out *burstOut) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(d time.Duration) {
		v := uint64(d)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, c := range out.Completions {
		put(c)
	}
	put(out.Makespan)
	return h.Sum64()
}

// simTotals accumulates the virtual-clock outputs of one input cycle.
type simTotals struct {
	sojournsMS []float64
	misses     int
	requests   int
	makespan   time.Duration
	energyJ    float64
	// peakMem sums each burst's peak resident memory, for the mean over
	// bursts (the global maximum is one configuration, the same on every
	// seed, and would hide a plan change that lowers typical peaks).
	peakMem int64
	bursts  int
	digest  uint64
}

func (s *simTotals) add(reqs []h2p.StreamRequest, out *burstOut) {
	for i, r := range reqs {
		s.requests++
		if out.Completions[i] <= 0 {
			s.misses++ // a failed request counts as a miss
			continue
		}
		s.sojournsMS = append(s.sojournsMS, float64(out.Sojourns[i])/float64(time.Millisecond))
		if r.Deadline > 0 && out.Sojourns[i] > r.Deadline {
			s.misses++
		}
	}
	s.makespan += out.Makespan
	var peak int64
	for _, res := range out.Results {
		for _, ws := range res.WindowStats {
			s.energyJ += ws.Objective.EnergyJoules
		}
		if res.Report != nil {
			peak = max(peak, res.Report.Executor.PeakMemoryBytes)
		}
	}
	s.peakMem += peak
	s.bursts++
	s.digest = s.digest*0x100000001b3 ^ digest(out)
}

// metrics reports the simulated end-to-end metrics of the cycle.
func (s *simTotals) metrics(set *metricSet) {
	n := len(s.sojournsMS)
	p50, p99 := nearestRank(s.sojournsMS, 50), nearestRank(s.sojournsMS, 99)
	note := fmt.Sprintf("n=%d requests", n)
	set.add("sim_sojourn_p50_ms", p50.Value, "ms", note)
	set.add("sim_sojourn_p99_ms", p99.Value, "ms", fmt.Sprintf("%s, %d beyond", note, p99.Beyond))
	set.add("sim_throughput_inf_per_s", float64(n)/s.makespan.Seconds(), "inf/s",
		fmt.Sprintf("%d inferences / %.3f s summed makespan", n, s.makespan.Seconds()))
	set.add("sim_energy_mj_per_inf", s.energyJ*1e3/float64(max(n, 1)), "mJ/inf", note)
	set.add("sim_peak_mem_mb", float64(s.peakMem)/float64(max(s.bursts, 1))/(1<<20), "MiB",
		fmt.Sprintf("mean burst peak, n=%d bursts", s.bursts))
	set.addRatio("sim_deadline_miss_frac", ratio{float64(s.misses), float64(s.requests)}, "misses/requests")
}

// deciles renders the sojourn distribution's p10..p90, for choosing and
// reviewing deadline budgets.
func (s *simTotals) deciles() string {
	var b strings.Builder
	for p := 10; p <= 90; p += 10 {
		fmt.Fprintf(&b, " p%d=%.2f", p, nearestRank(s.sojournsMS, float64(p)).Value)
	}
	return "  sim sojourn deciles (ms):" + b.String()
}
