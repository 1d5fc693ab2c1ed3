package stream

import (
	"fmt"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
)

// TestRequestTraceIDs pins the trace-ID scheme: deterministic per index,
// never zero, collision-free over a realistic fleet, and round-trippable
// through the 16-hex-digit form the /requests endpoint uses.
func TestRequestTraceIDs(t *testing.T) {
	seen := make(map[TraceID]int)
	for i := 0; i < 10000; i++ {
		id := NewTraceID(i)
		if id == 0 {
			t.Fatalf("NewTraceID(%d) = 0 (zero means unassigned)", i)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("NewTraceID collision: indices %d and %d both map to %v", prev, i, id)
		}
		seen[id] = i
		if id != NewTraceID(i) {
			t.Fatalf("NewTraceID(%d) not deterministic", i)
		}
	}
	id := NewTraceID(42)
	hex := id.String()
	if len(hex) != 16 {
		t.Fatalf("TraceID string %q not 16 hex digits", hex)
	}
	back, err := ParseTraceID(hex)
	if err != nil || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v; want %v", hex, back, err, id)
	}
	if TraceID(0).String() != "" {
		t.Errorf("zero TraceID renders %q, want empty", TraceID(0).String())
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Error("ParseTraceID accepted garbage")
	}
}

// checkDecomp asserts the tentpole invariant on every completed timeline:
// the virtual-clock components sum exactly to the measured sojourn, and the
// phase events are well-formed (monotone, opening with arrival, closing with
// completion).
func checkDecomp(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Timelines) == 0 {
		t.Fatal("traced run produced no timelines")
	}
	for i, tl := range res.Timelines {
		if tl.Trace == "" {
			t.Fatalf("timeline %d has no trace ID", i)
		}
		if len(tl.Events) == 0 || tl.Events[0].Phase != PhaseArrived {
			t.Fatalf("timeline %d does not open with %s: %+v", i, PhaseArrived, tl.Events)
		}
		for j := 1; j < len(tl.Events); j++ {
			if tl.Events[j].At < tl.Events[j-1].At {
				t.Fatalf("timeline %d events not monotone: %s@%v after %s@%v",
					i, tl.Events[j].Phase, tl.Events[j].At, tl.Events[j-1].Phase, tl.Events[j-1].At)
			}
		}
		if !tl.Completed {
			continue
		}
		if got := tl.Breakdown.VirtualSum(); got != tl.Sojourn {
			t.Errorf("timeline %d (%s): decomposition sums to %v, sojourn is %v (%+v)",
				i, tl.Trace, got, tl.Sojourn, tl.Breakdown)
		}
		if tl.Sojourn != res.Sojourns[i] {
			t.Errorf("timeline %d sojourn %v != result sojourn %v", i, tl.Sojourn, res.Sojourns[i])
		}
		last := tl.Events[len(tl.Events)-1].Phase
		if last != PhaseCompleted && last != PhaseMissed {
			t.Errorf("completed timeline %d closes with %s", i, last)
		}
	}
}

// TestDecompInvariantSmoothRun: with no degradation the decomposition is
// pure queue-wait + exec — backoff, interrupt loss and handoff transit must
// all be zero, and the sums must still telescope exactly.
func TestDecompInvariantSmoothRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RequestTracing = true
	store := NewTraceStore(0, 0)
	cfg.Traces = store
	s := newScheduler(t, cfg)
	reqs := burstRequests(t, model.ResNet50, model.GoogLeNet, model.BERT, model.SqueezeNet)
	res, err := s.Run(reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkDecomp(t, res)
	for i, tl := range res.Timelines {
		b := tl.Breakdown
		if b.Backoff != 0 || b.InterruptLoss != 0 || b.HandoffTransit != 0 {
			t.Errorf("timeline %d has degradation components on a smooth run: %+v", i, b)
		}
		if tl.Missed {
			t.Errorf("timeline %d marked missed without a deadline", i)
		}
	}
	if store.Total() != len(reqs) {
		t.Errorf("trace store holds %d timelines, want %d", store.Total(), len(reqs))
	}
	for _, tl := range res.Timelines {
		got, ok := store.Get(tl.Trace)
		if !ok || got.Trace != tl.Trace {
			t.Errorf("trace %s not retrievable from the store", tl.Trace)
		}
	}
}

// TestDecompInvariantInterruptRequeue drives the interrupt/requeue path: the
// NPU goes offline mid-window, in-flight work is discarded and replanned.
// Every completed timeline must still sum exactly, requeued requests must
// carry interrupted/requeued events and a positive InterruptLoss.
func TestDecompInvariantInterruptRequeue(t *testing.T) {
	names := []string{
		model.ResNet50, model.GoogLeNet, model.BERT,
		model.ResNet50, model.GoogLeNet, model.BERT,
	}
	base := newScheduler(t, DefaultConfig())
	baseRes, err := base.Run(burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.RequestTracing = true
	cfg.DeviceName = "kirin"
	cfg.Events = []soc.Event{
		{Kind: soc.EventProcessorOffline, Processor: "npu", At: baseRes.WindowStats[0].End / 3},
	}
	s := newScheduler(t, cfg)
	reqs := burstRequests(t, names...)
	res, err := s.Run(reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Retried < 1 {
		t.Fatal("scenario did not requeue anything; interrupt path untested")
	}
	checkDecomp(t, res)

	interrupted := 0
	for i, tl := range res.Timelines {
		var sawInterrupt, sawRequeue bool
		for _, ev := range tl.Events {
			if ev.Device != "kirin" {
				t.Fatalf("timeline %d event on device %q, want kirin", i, ev.Device)
			}
			switch ev.Phase {
			case PhaseInterrupted:
				sawInterrupt = true
			case PhaseRequeued:
				sawRequeue = true
			}
		}
		if sawInterrupt != sawRequeue {
			t.Errorf("timeline %d interrupted=%t but requeued=%t", i, sawInterrupt, sawRequeue)
		}
		if sawInterrupt {
			interrupted++
			if tl.Breakdown.InterruptLoss <= 0 {
				t.Errorf("interrupted timeline %d has no InterruptLoss: %+v", i, tl.Breakdown)
			}
		}
	}
	if interrupted == 0 {
		t.Error("no timeline records an interrupt despite requeues")
	}

	// The report-level roll-up must agree with the per-request breakdowns.
	rep := res.Report
	if rep == nil || rep.Decomposition == nil {
		t.Fatal("traced run report lacks the decomposition roll-up")
	}
	var wantExec, wantLoss time.Duration
	for _, tl := range res.Timelines {
		if tl.Completed {
			wantExec += tl.Breakdown.Exec
			wantLoss += tl.Breakdown.InterruptLoss
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	close := func(a, b float64) bool { d := a - b; return d < 1e-6 && d > -1e-6 }
	if !close(rep.Decomposition.ExecMS, ms(wantExec)) || !close(rep.Decomposition.InterruptLossMS, ms(wantLoss)) {
		t.Errorf("report decomposition (exec %v, loss %v) disagrees with timelines (exec %v, loss %v)",
			rep.Decomposition.ExecMS, rep.Decomposition.InterruptLossMS, ms(wantExec), ms(wantLoss))
	}
}

// TestDecompInvariantBackoffHalt drives the retry-backoff and graceful-halt
// paths: every processor goes offline, plans fail past the retry budget, and
// the run halts. Partial timelines must close with a halted event whose
// components cover exactly [arrival, halt] — the covered-endpoint contract
// fleet handoff stitching builds on.
func TestDecompInvariantBackoffHalt(t *testing.T) {
	names := []string{
		model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2,
		model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2,
	}
	cfg := haltConfig(true, kirinOffline(2*time.Millisecond))
	cfg.RequestTracing = true
	s := newPlanCacheScheduler(t, cfg, 0)
	reqs := spreadRequests(t, names, time.Millisecond)
	res, err := s.Run(reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.Unfinished) == 0 {
		t.Fatal("scenario did not halt; backoff/halt path untested")
	}
	checkDecomp(t, res)

	unfin := make(map[int]bool, len(res.Unfinished))
	for _, i := range res.Unfinished {
		unfin[i] = true
	}
	backoffs := 0
	for i, tl := range res.Timelines {
		if tl.Breakdown.Backoff > 0 {
			backoffs++
		}
		if !unfin[i] {
			continue
		}
		if tl.Completed {
			t.Fatalf("unfinished request %d has a completed timeline", i)
		}
		last := tl.Events[len(tl.Events)-1]
		if reqs[i].Arrival >= res.HaltedAt {
			// Arrived after the halt: untouched beyond the arrival event.
			if got := tl.Breakdown.VirtualSum(); got != 0 {
				t.Errorf("post-halt arrival %d has components %v", i, got)
			}
			continue
		}
		if last.Phase != PhaseHalted || last.At != res.HaltedAt {
			t.Errorf("partial timeline %d closes with %s@%v, want %s@%v",
				i, last.Phase, last.At, PhaseHalted, res.HaltedAt)
		}
		// Components cover arrival → halt exactly.
		if got, want := tl.Breakdown.VirtualSum(), res.HaltedAt-reqs[i].Arrival; got != want {
			t.Errorf("partial timeline %d covers %v, want %v (%+v)", i, got, want, tl.Breakdown)
		}
	}
	if res.PlanRetries > 0 && backoffs == 0 {
		t.Error("plan retries happened but no timeline accrued backoff")
	}
}

// TestSLOBudgetMissCountersMatch pins the /slo data path: the labeled
// stream_deadline_misses_total counters, Result.MissesBySLO, the report's
// per-class table and the SLO monitor's lifetime totals must all agree.
func TestSLOBudgetMissCountersMatch(t *testing.T) {
	reg := obs.NewRegistry("h2pipe")
	mon := obs.NewSLOMonitor(0, map[string]float64{
		core.SLOLatencyCritical.String(): 0.01,
		core.SLOBalanced.String():        0.5,
	})
	cfg := DefaultConfig()
	cfg.RequestTracing = true
	cfg.Metrics = reg
	cfg.SLOMonitor = mon
	s := newScheduler(t, cfg)

	// Impossible deadlines: every request misses. Half carry an explicit
	// balanced class, half resolve to the latency-critical default.
	reqs := burstRequests(t, model.ResNet50, model.GoogLeNet, model.BERT, model.SqueezeNet)
	for i := range reqs {
		reqs[i].Deadline = time.Nanosecond
		if i%2 == 1 {
			reqs[i].SLO = core.SLOBalanced
		}
	}
	res, err := s.Run(reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkDecomp(t, res)
	if res.DeadlineMisses != len(reqs) {
		t.Fatalf("deadline misses = %d, want %d", res.DeadlineMisses, len(reqs))
	}

	wantBySLO := map[string]int{
		core.SLOLatencyCritical.String(): 2,
		core.SLOBalanced.String():        2,
	}
	snap := reg.Snapshot()
	totalLabeled := 0
	for class, want := range wantBySLO {
		if got := res.MissesBySLO[class]; got != want {
			t.Errorf("MissesBySLO[%s] = %d, want %d", class, got, want)
		}
		series := obs.SeriesName("stream_deadline_misses_total", "slo", class)
		if got := snap.Counters[series]; got != uint64(want) {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
		totalLabeled += int(snap.Counters[series])
		if got := res.Report.Stream.DeadlineMissesBySLO[class]; got != want {
			t.Errorf("report DeadlineMissesBySLO[%s] = %d, want %d", class, got, want)
		}
	}
	if totalLabeled != res.DeadlineMisses {
		t.Errorf("labeled miss counters sum to %d, Result.DeadlineMisses is %d", totalLabeled, res.DeadlineMisses)
	}

	// The monitor's lifetime totals mirror the same completions.
	sloRep := mon.Report()
	if len(sloRep.Classes) != 2 {
		t.Fatalf("SLO report has %d classes, want 2: %+v", len(sloRep.Classes), sloRep.Classes)
	}
	for _, c := range sloRep.Classes {
		if int(c.Missed) != wantBySLO[c.Class] || c.Total != 2 {
			t.Errorf("SLO class %s: missed %d/%d, want %d/2", c.Class, c.Missed, c.Total, wantBySLO[c.Class])
		}
		if c.MissFraction != 1 {
			t.Errorf("SLO class %s miss fraction %v, want 1", c.Class, c.MissFraction)
		}
		if c.BudgetRemaining >= 1 {
			t.Errorf("SLO class %s at 100%% miss reports budget remaining %v", c.Class, c.BudgetRemaining)
		}
	}

	// Missed timelines record both exemplar trace IDs and the missed phase.
	h, ok := snap.Histograms["stream_sojourn_seconds"]
	if !ok {
		t.Fatal("no sojourn histogram in snapshot")
	}
	found := false
	for _, ex := range h.Exemplars {
		if ex != nil && ex.Trace != "" {
			found = true
		}
	}
	if !found {
		t.Error("sojourn histogram snapshot carries no trace exemplars under tracing")
	}
}

// TestDecompSojournQuantiles pins the nearest-rank quantile helper the
// report path reuses after its single sort.
func TestDecompSojournQuantiles(t *testing.T) {
	res := &Result{Sojourns: make([]time.Duration, 100)}
	for i := range res.Sojourns {
		// Store shuffled (reverse) so SojournQuantile must sort.
		res.Sojourns[i] = time.Duration(100-i) * time.Millisecond
	}
	for _, tc := range []struct {
		p    int
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
	} {
		if got := res.SojournQuantile(tc.p); got != tc.want {
			t.Errorf("SojournQuantile(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
	var empty Result
	if got := empty.SojournQuantile(95); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestRequestTraceStoreBounds covers the flight recorder: ring eviction,
// in-place replacement under one trace ID, the worst-sojourn shortlist and
// non-blocking subscriber fan-out.
func TestRequestTraceStoreBounds(t *testing.T) {
	store := NewTraceStore(4, 2)
	mk := func(i int, sojourn time.Duration) RequestTimeline {
		return RequestTimeline{
			Trace:     NewTraceID(i).String(),
			Index:     i,
			Model:     fmt.Sprintf("m%d", i),
			Completed: true,
			Sojourn:   sojourn,
		}
	}
	ch, cancel := store.Subscribe(2)
	defer cancel()

	for i := 0; i < 6; i++ {
		store.Put(mk(i, time.Duration(i+1)*time.Millisecond))
	}
	if store.Total() != 6 {
		t.Errorf("total = %d, want 6", store.Total())
	}
	recent := store.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(recent))
	}
	if recent[0].Index != 2 || recent[3].Index != 5 {
		t.Errorf("ring kept wrong window: first=%d last=%d, want 2..5", recent[0].Index, recent[3].Index)
	}
	if _, ok := store.Get(NewTraceID(0).String()); ok {
		t.Error("evicted trace still retrievable")
	}
	worst := store.Worst(0)
	if len(worst) != 2 || worst[0].Index != 5 || worst[1].Index != 4 {
		t.Errorf("worst shortlist wrong: %+v", worst)
	}

	// Replacing under the same trace ID (the fleet stitching hook) must not
	// grow the ring and must update both views.
	repl := mk(5, 50*time.Millisecond)
	repl.Handoff = true
	store.Put(repl)
	if got := len(store.Recent(0)); got != 4 {
		t.Errorf("replace grew the ring to %d", got)
	}
	if tl, ok := store.Get(NewTraceID(5).String()); !ok || !tl.Handoff {
		t.Error("replacement not visible via Get")
	}
	if w := store.Worst(1); len(w) != 1 || w[0].Sojourn != 50*time.Millisecond {
		t.Errorf("replacement not re-ranked in worst list: %+v", w)
	}

	// The 2-buffer subscriber saw the first two puts and dropped the rest
	// without ever blocking Put.
	got := 0
	for {
		select {
		case <-ch:
			got++
			continue
		default:
		}
		break
	}
	if got != 2 {
		t.Errorf("subscriber drained %d events, want 2 (rest dropped)", got)
	}

	// Nil-receiver safety across the whole surface.
	var nilStore *TraceStore
	nilStore.Put(mk(9, time.Second))
	if _, ok := nilStore.Get("anything"); ok {
		t.Error("nil store Get returned ok")
	}
	if nilStore.Recent(1) != nil || nilStore.Worst(1) != nil || nilStore.Total() != 0 {
		t.Error("nil store leaked data")
	}
	nch, ncancel := nilStore.Subscribe(1)
	ncancel()
	if _, open := <-nch; open {
		t.Error("nil store subscription channel not closed")
	}
}

// TestRequestTraceFeedDrops covers the fan-out drop accounting: a stuffed
// subscriber must drop (not block) and the drops must be observable per
// subscription, on the feed total and on the bound counter.
func TestRequestTraceFeedDrops(t *testing.T) {
	reg := obs.NewRegistry("h2pipe")
	f := NewFeed(8)
	f.bindDrops(reg.Counter("stream_feed_drops_total"))
	_, drops, cancel := f.SubscribeWithDrops(1)
	defer cancel()
	for i := 0; i < 4; i++ {
		f.publish(WindowStat{Requests: i})
	}
	if got := drops(); got != 3 {
		t.Errorf("subscriber drops = %d, want 3", got)
	}
	if got := f.Drops(); got != 3 {
		t.Errorf("feed drops = %d, want 3", got)
	}
	if got := reg.Snapshot().Counters["stream_feed_drops_total"]; got != 3 {
		t.Errorf("stream_feed_drops_total = %d, want 3", got)
	}
	// An unstuffed subscriber drops nothing.
	_, drops2, cancel2 := f.SubscribeWithDrops(16)
	defer cancel2()
	f.publish(WindowStat{Requests: 9})
	if got := drops2(); got != 0 {
		t.Errorf("healthy subscriber drops = %d, want 0", got)
	}
}
