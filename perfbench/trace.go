package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	h2p "hetero2pipe"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/workload"
)

// spanCapacity bounds the traced System's span ring. One burst records at
// most a few hundred spans; the run checks that no burst overflows the ring.
const spanCapacity = 1 << 10

// reconcileTolerance is how far, as a share of the traced bursts' summed
// wall time, the per-layer self times plus the unattributed time may stray
// from the wall time the benchmark measured around the facade calls.
const reconcileTolerance = 0.01

// traceTotals accumulates the traced run's per-layer figures.
type traceTotals struct {
	bursts int

	// Ledger: critical-path time per layer, plain self time per layer, the
	// benchmark-measured wall time around the traced calls, and the worst
	// single-burst reconciliation error.
	path, self    map[string]time.Duration
	wall          time.Duration
	worstBurstErr float64
	maxSpans      uint64

	// Span-derived figures.
	fleetRun, fleetSlowest time.Duration
	planHit, planMiss      time.Duration
	planHits, planMisses   int
	partition              time.Duration
	partitions             int
	execute                time.Duration
	executes               int
	shardMax, shardMean    float64
	lostSpans              uint64

	// Counts from the public results.
	windows, windowReqs, windowCap     int
	replans, requeues, events, stalls  int
	slices                             int
	slowdownSum                        float64
	bubble, procTime                   time.Duration
	pcHits, pcMisses, ccHits, ccMisses uint64
	dpCells, reuse                     uint64
	queueWait, backoff, interrupt      time.Duration
	exec, handoff, sojourn             time.Duration
}

// runTraced is the traced ledger run. It alternates an untraced burst on a
// System built exactly as the timed run builds it with the same burst on a
// twin System that also records spans and request timelines, so the two
// rates give the tracing overhead. After each traced burst it rebuilds the
// burst's span tree, attributes its wall time to layers, reads per-layer
// counts from the public results, and runs the layer probes.
func runTraced(ctx context.Context, w *workloadSpec, o options, procs int) (*report, error) {
	rep := &report{}
	inputs, err := w.inputs(w, o.seed)
	if err != nil {
		return nil, err
	}
	plain, _, want, err := warmSystem(ctx, w, sysConfig{procs: procs, metrics: h2p.NewMetricsRegistry("perfbench")}, inputs, rep)
	if err != nil {
		return nil, err
	}
	rec := h2p.NewSpanRecorder(spanCapacity)
	traced, _, got, err := warmSystem(ctx, w,
		sysConfig{procs: procs, metrics: h2p.NewMetricsRegistry("perfbench"), spans: rec, tracing: true}, inputs, rep)
	if err != nil {
		return nil, err
	}
	if !equalDigests(want, got) {
		rep.problem("arming spans and request tracing changed the simulated outputs")
	}
	pr, err := newProber(procs)
	if err != nil {
		return nil, err
	}
	mix, err := workload.Instantiate(cameraMix)
	if err != nil {
		return nil, err
	}
	k := devices(traced)[0].SoC().NumProcessors()

	tt := &traceTotals{path: map[string]time.Duration{}, self: map[string]time.Duration{}}
	var plainWall, tracedWall time.Duration
	plainDone, tracedDone := 0, 0
	runtime.GC()
	steal := startSteal()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for b := 0; b < w.Frames || time.Now().Before(deadline); b++ {
		f := b % w.Frames
		reqs := inputs[f]

		t0 := time.Now()
		out, err := runBurst(ctx, w, plain, reqs)
		plainWall += time.Since(t0)
		rep.Attempted += len(reqs)
		if bad := countFailures(rep, b, reqs, out, err, false, want[f]); bad < len(reqs) {
			plainDone += len(reqs) - bad
		}

		total0 := rec.Total()
		bctx, root := obs.StartSpan(obs.ContextWithRecorder(ctx, rec), "bench.burst")
		t1 := time.Now()
		tout, err := runBurst(bctx, w, traced, reqs)
		el := time.Since(t1)
		root.End()
		tracedWall += el
		rep.Attempted += len(reqs)
		bad := countFailures(rep, b, reqs, tout, err, true, want[f])
		tracedDone += len(reqs) - bad
		if err != nil {
			continue
		}
		n := rec.Total() - total0
		tt.maxSpans = max(tt.maxSpans, n)
		if n > uint64(rec.Capacity()) {
			tt.lostSpans += n - uint64(rec.Capacity())
		}
		tree := spanTree(rec.Spans(), root.ID())
		if tree == nil {
			rep.problem("burst %d: root span missing from the recorder", b)
			continue
		}
		tt.addBurst(tree, el, tout, w, k)

		if w.Fleet {
			pr.route(traced, reqs, tout)
		}
		if err := pr.windows(ctx, traced, reqs, tout); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		devs := devices(traced)
		if err := pr.buildProfile(devs[b%len(devs)].SoC().Name, reqs[b%len(reqs)].Model); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		if err := pr.applyEvents(mix); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	rep.Extra = append(rep.Extra, steal.line())
	if tt.lostSpans > 0 {
		rep.problem("%d spans overflowed the %d-span ring", tt.lostSpans, rec.Capacity())
	}
	if pr.t.routeMismatch > 0 {
		rep.problem("route probe sent %d requests elsewhere than the fleet did", pr.t.routeMismatch)
	}

	var sum time.Duration
	for _, d := range tt.path {
		sum += d
	}
	reconcile := math.Abs(float64(sum-tt.wall)) / float64(tt.wall)
	if reconcile > reconcileTolerance {
		rep.problem("ledger does not reconcile: layers+unattributed %v vs traced wall %v (%.3f%% > %.1f%%)",
			sum, tt.wall, 100*reconcile, 100*reconcileTolerance)
	}
	rep.Extra = append(rep.Extra,
		fmt.Sprintf("  ledger: %d traced bursts (at most %d spans each), %v traced wall; layers+unattributed = %v (error %.4f%%, worst burst %.4f%%, tolerance %.1f%%)",
			tt.bursts, tt.maxSpans, tt.wall, sum, 100*reconcile, 100*tt.worstBurstErr, 100*reconcileTolerance))
	tt.metrics(&rep.Metrics, w, &pr.t, plainWall, tracedWall, plainDone, tracedDone)
	return rep, nil
}

// countFailures checks one burst, records any failure on the report and
// returns the number of failed requests.
func countFailures(rep *report, b int, reqs []h2p.StreamRequest, out *burstOut, err error, traced bool, want uint64) int {
	if err != nil {
		rep.Failed += len(reqs)
		rep.problem("burst %d: %v", b, err)
		return len(reqs)
	}
	bad, p := checkBurst(reqs, out, traced)
	if bad == 0 && digest(out) != want {
		bad, p = len(reqs), fmt.Sprintf("burst %d replays its input with different outputs", b)
	}
	if bad > 0 {
		rep.Failed += bad
		rep.problem("burst %d: %s", b, p)
	}
	return bad
}

// addBurst folds one traced burst into the totals.
func (t *traceTotals) addBurst(tree *spanNode, wall time.Duration, out *burstOut, w *workloadSpec, k int) {
	t.bursts++
	t.wall += wall
	path := map[string]time.Duration{}
	criticalPath(tree, tree.Start, tree.End, path)
	var sum time.Duration
	for l, d := range path {
		t.path[l] += d
		sum += d
	}
	t.worstBurstErr = math.Max(t.worstBurstErr, math.Abs(float64(sum-wall))/float64(wall))
	selfTimes(tree, t.self)

	walk(tree, func(n *spanNode) {
		switch n.Name {
		case "fleet_run":
			var slowest time.Duration
			for _, k := range n.kids {
				if k.Name == "fleet_device" {
					slowest = max(slowest, k.dur())
				}
			}
			t.fleetRun += n.dur()
			t.fleetSlowest += slowest
		case "plan":
			if a, ok := n.Attr("plan_cache"); ok && a.AsString() == "hit" {
				t.planHit += n.dur()
				t.planHits++
			} else {
				t.planMiss += n.dur()
				t.planMisses++
			}
		case "partition":
			t.partition += n.dur()
			t.partitions++
		case "execute":
			t.execute += n.dur()
			t.executes++
		}
	})

	if len(out.Assignments) > 0 {
		largest := 0
		for _, idxs := range out.Assignments {
			largest = max(largest, len(idxs))
		}
		t.shardMax += float64(largest)
		t.shardMean += float64(len(out.Completions)) / float64(len(out.Assignments))
	}
	for _, res := range out.Results {
		t.windows += len(res.WindowStats)
		for _, ws := range res.WindowStats {
			t.windowReqs += ws.Requests
			t.windowCap += w.Window
			t.dpCells += ws.DPCells
			t.procTime += ws.ExecSpan * time.Duration(k)
		}
		t.replans += res.Replans
		t.requeues += res.Retried
		t.events += res.EventsApplied
		t.pcHits += res.PlanCacheHits
		t.pcMisses += res.PlanCacheMisses
		t.ccHits += res.CacheHits
		t.ccMisses += res.CacheMisses
		t.reuse += res.IncrementalReuse
		if r := res.Report; r != nil {
			t.slices += r.Executor.Slices
			t.slowdownSum += r.Executor.MeanSlowdown * float64(r.Executor.Slices)
			t.bubble += time.Duration(r.Executor.BubbleMS * float64(time.Millisecond))
			t.stalls += r.Executor.AdmissionStalls
		}
	}
	for _, tl := range out.Timelines {
		t.queueWait += tl.Breakdown.QueueWait
		t.backoff += tl.Breakdown.Backoff
		t.interrupt += tl.Breakdown.InterruptLoss
		t.exec += tl.Breakdown.Exec
		t.handoff += tl.Breakdown.HandoffTransit
		t.sojourn += tl.Sojourn
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perUS is a per-item time in microseconds, 0 when there were no items.
func perUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}

// metrics emits every per-layer metric, each with what it rests on.
func (t *traceTotals) metrics(m *metricSet, w *workloadSpec, p *probeTimes, plainWall, tracedWall time.Duration, plainDone, tracedDone int) {
	bursts, windows := float64(t.bursts), float64(t.windows)
	perBurst := func(n int) float64 { return float64(n) / bursts }
	nb := fmt.Sprintf("n=%d bursts", t.bursts)
	nw := fmt.Sprintf("n=%d windows", t.windows)

	// Ledger: the critical-path split of the traced bursts' wall time.
	for _, l := range ledgerLayers {
		m.addRatio("ledger."+l+"_share", ratio{float64(t.path[l]), float64(t.wall)}, "ns on the burst path / traced wall ns")
	}
	m.addRatio("unattributed_share", ratio{float64(t.path[layerUnattributed]), float64(t.wall)}, "ns outside layer spans / traced wall ns")

	// fleet
	if w.Fleet {
		m.add("fleet.route_ns_per_req", float64(p.route)/float64(p.routed), "ns", fmt.Sprintf("n=%d routed requests", p.routed))
	} else {
		m.add("fleet.route_ns_per_req", 0, "ns", "n/a: single device, no routing layer")
	}
	m.addRatio("fleet.self_share", ratio{float64(t.fleetRun - t.fleetSlowest), float64(t.fleetRun)},
		"(fleet_run - slowest fleet_device) ns / fleet_run ns")
	m.addRatio("fleet.shard_imbalance", ratio{t.shardMax, t.shardMean}, "summed largest shard / summed mean shard")

	// stream
	m.add("stream.windows_per_burst", perBurst(t.windows), "count", nb)
	m.addRatio("stream.window_fill", ratio{float64(t.windowReqs), float64(t.windowCap)}, "requests / window capacity")
	m.add("stream.self_us_per_window", perUS(t.self["stream"], t.windows), "us", nw+", device run minus plan and execute spans")
	m.add("stream.replans_per_burst", perBurst(t.replans), "count", nb)
	m.add("stream.requeues_per_burst", perBurst(t.requeues), "count", nb)
	soj := float64(t.sojourn)
	m.addRatio("stream.queue_wait_share", ratio{float64(t.queueWait), soj}, "virtual ns / summed sojourn ns")
	m.addRatio("stream.interrupt_loss_share", ratio{float64(t.interrupt), soj}, "virtual ns / summed sojourn ns")
	m.addRatio("stream.backoff_share", ratio{float64(t.backoff), soj}, "virtual ns / summed sojourn ns")
	m.addRatio("stream.exec_share", ratio{float64(t.exec), soj},
		fmt.Sprintf("virtual ns / summed sojourn ns; handoff transit %.4f", ratio{float64(t.handoff), soj}.Value()))

	// core
	m.addRatio("core.plancache.hit_ratio", ratio{float64(t.pcHits), float64(t.pcHits + t.pcMisses)}, "plan-cache hits/lookups")
	m.add("core.plancache.lookup_us_per_window", perUS(p.lookup, p.lookups), "us", fmt.Sprintf("n=%d HasCachedPlan probes", p.lookups))
	m.add("core.plan_hit_us_per_window", perUS(t.planHit, t.planHits), "us", fmt.Sprintf("n=%d plan spans served by the plan cache", t.planHits))
	m.add("core.plan_miss_us_per_window", perUS(t.planMiss, t.planMisses), "us", fmt.Sprintf("n=%d plan spans planned in full", t.planMisses))
	m.addRatio("core.costcache.hit_ratio", ratio{float64(t.ccHits), float64(t.ccHits + t.ccMisses)}, "cost-cache hits/lookups")
	m.add("core.partition.us_per_model", perUS(t.partition, t.partitions), "us", fmt.Sprintf("n=%d partition spans", t.partitions))
	m.add("core.partition.dp_cells_per_window", float64(t.dpCells)/windows, "count", nw)
	m.addRatio("core.replan.reuse_ratio", ratio{float64(t.reuse), float64(t.partitions)}, "memo-reused partitions / partitions")
	miss := fmt.Sprintf("%d probed plan-cache-miss windows amortised over %d windows", p.missWindows, t.windows)
	m.add("core.mitigate.us_per_window", perUS(p.mitigate, t.windows), "us", miss)
	m.add("core.steal.us_per_window", perUS(p.steal, t.windows), "us", miss)
	m.add("core.tail.us_per_window", perUS(p.tail, t.windows), "us", miss)

	// profile
	m.add("profile.build_us_per_table", perUS(p.build, p.tables), "us", fmt.Sprintf("n=%d tables built from scratch", p.tables))

	// pipeline
	m.add("pipeline.execute_us_per_window", perUS(t.execute, t.executes), "us", fmt.Sprintf("n=%d execute spans", t.executes))
	m.add("pipeline.validate_us_per_window", perUS(p.validate, p.validated), "us", fmt.Sprintf("n=%d probed Schedule.Validate calls", p.validated))
	m.add("pipeline.slices_per_window", float64(t.slices)/windows, "count", nw)
	m.addRatio("pipeline.bubble_share", ratio{float64(t.bubble), float64(t.procTime)}, "idle processor ns / (window span ns x processors)")
	m.add("pipeline.admission_stalls_per_burst", perBurst(t.stalls), "count", nb)

	// contention
	m.add("contention.mean_slowdown", t.slowdownSum/float64(max(t.slices, 1)), "x", fmt.Sprintf("n=%d slices", t.slices))

	// soc
	m.add("soc.apply_us_per_event", perUS(p.apply, p.events), "us", fmt.Sprintf("n=%d probed Apply+InvalidateProcessors", p.events))
	m.add("soc.events_per_burst", perBurst(t.events), "count", nb)

	// obs: the traced twin's rate against the untraced one, burst by burst.
	plainRate := float64(plainDone) / plainWall.Seconds()
	tracedRate := float64(tracedDone) / tracedWall.Seconds()
	m.add("obs.tracing_overhead_share", 1-tracedRate/plainRate, "ratio",
		fmt.Sprintf("1 - traced %.0f req/s / untraced %.0f req/s over %d burst pairs", tracedRate, plainRate, t.bursts))
}
