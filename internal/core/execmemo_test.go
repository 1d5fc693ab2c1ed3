package core

import (
	"context"
	"sync"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

func memoProfiles(t *testing.T, s *soc.SoC, names ...string) []*profile.Profile {
	t.Helper()
	pl, err := NewPlanner(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*profile.Profile, len(names))
	for i, n := range names {
		p, err := pl.Profile(model.MustByName(n))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// TestExecMemoContentKey checks the memo's key: a content-equal clone hits
// and shares the Result, while a different profile order, a different stage
// range, or a different profile with identical stage ranges (a batched twin
// has the same layer chain) is a distinct schedule.
func TestExecMemoContentKey(t *testing.T) {
	s := soc.Kirin990()
	ps := memoProfiles(t, s, model.ResNet50, model.SqueezeNet)
	k := s.NumProcessors()
	pl, err := NewPlanner(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	twin, err := pl.Profile(model.Batched(model.MustByName(model.SqueezeNet), 2))
	if err != nil {
		t.Fatal(err)
	}
	single := func(p *profile.Profile, proc int) pipeline.Cuts {
		return pipeline.SingleProcessor(p.NumLayers(), proc, k)
	}
	a, err := pipeline.FromCuts(s, ps, []pipeline.Cuts{single(ps[0], 1), single(ps[1], 2)})
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := pipeline.FromCuts(s, []*profile.Profile{ps[1], ps[0]},
		[]pipeline.Cuts{single(ps[1], 2), single(ps[0], 1)})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := pipeline.FromCuts(s, ps, []pipeline.Cuts{single(ps[0], 1), single(ps[1], 3)})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := pipeline.FromCuts(s, []*profile.Profile{ps[0], twin},
		[]pipeline.Cuts{single(ps[0], 1), single(twin, 3)})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry("test")
	opts := pipeline.DefaultOptions()
	opts.Metrics = reg
	memo := newExecMemo(opts)
	r1, err := memo.execute(a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := memo.execute(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("a content-equal clone did not share the memoized Result")
	}
	seen := map[*pipeline.Result]bool{r1: true}
	for _, sched := range []*pipeline.Schedule{swapped, moved, batched} {
		r, err := memo.execute(sched)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r] {
			t.Error("a distinct schedule was served another schedule's Result")
		}
		seen[r] = true
	}
	want, err := pipeline.Execute(moved, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := memo.execute(moved); got.Makespan != want.Makespan || got.EnergyJoules != want.EnergyJoules {
		t.Errorf("memoized result (%v, %g) differs from a direct run (%v, %g)",
			got.Makespan, got.EnergyJoules, want.Makespan, want.EnergyJoules)
	}
	if evals, hits := memo.stats(); evals != 4 || hits != 2 {
		t.Errorf("stats = (%d evals, %d hits), want (4, 2)", evals, hits)
	}
	if runs := reg.Counter("executor_runs_total").Value(); runs != 4 {
		t.Errorf("executor ran %d times for 4 distinct schedules", runs)
	}
}

// TestExecMemoConcurrentOnce asks for one schedule from many goroutines at
// once: the executor must run exactly once and every caller must get its
// Result.
func TestExecMemoConcurrentOnce(t *testing.T) {
	s := soc.Kirin990()
	ps := memoProfiles(t, s, model.GoogLeNet)
	sched, err := pipeline.FromCuts(s, ps, []pipeline.Cuts{pipeline.SingleProcessor(ps[0].NumLayers(), 0, s.NumProcessors())})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("test")
	opts := pipeline.DefaultOptions()
	opts.Metrics = reg
	memo := newExecMemo(opts)
	const callers = 16
	results := make([]*pipeline.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = memo.execute(sched.Clone())
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil || r != results[0] {
			t.Fatalf("caller %d got %p, want the shared result %p", i, r, results[0])
		}
	}
	if runs := reg.Counter("executor_runs_total").Value(); runs != 1 {
		t.Errorf("executor ran %d times, want 1", runs)
	}
	if evals, hits := memo.stats(); evals != 1 || hits != callers-1 {
		t.Errorf("stats = (%d, %d), want (1, %d)", evals, hits, callers-1)
	}
}

// TestPlanSimulatesEachScheduleOnce plans windows with the executor's own
// run counter armed: every simulation the planner runs is a distinct memo
// key (executor runs == planner_exec_evaluations_total), repeats are served
// from the memo, and the counts do not depend on the planner's parallelism.
func TestPlanSimulatesEachScheduleOnce(t *testing.T) {
	windows := [][]string{
		{model.ResNet50},
		{model.YOLOv4, model.SqueezeNet, model.BERT},
		{model.ResNet50, model.SqueezeNet, model.ResNet50, model.GoogLeNet},
	}
	for _, names := range windows {
		var evalsAt1 uint64
		for _, par := range []int{1, 4} {
			reg := obs.NewRegistry("test")
			opts := DefaultOptions()
			opts.Parallelism = par
			opts.Metrics = reg
			opts.ExecOptions.Metrics = reg
			pl, err := NewPlanner(soc.Kirin990(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pl.PlanModels(mustModels(t, names...)); err != nil {
				t.Fatal(err)
			}
			evals, hits := pl.ExecStats()
			runs := reg.Counter("executor_runs_total").Value()
			if evals == 0 || runs != evals {
				t.Errorf("%v par=%d: executor ran %d times for %d distinct schedules", names, par, runs, evals)
			}
			if hits == 0 {
				t.Errorf("%v par=%d: no candidate evaluation was served from the memo", names, par)
			}
			if c := reg.Counter("planner_exec_evaluations_total").Value(); c != evals {
				t.Errorf("%v par=%d: planner_exec_evaluations_total = %d, want %d", names, par, c, evals)
			}
			if c := reg.Counter("planner_exec_memo_hits_total").Value(); c != hits {
				t.Errorf("%v par=%d: planner_exec_memo_hits_total = %d, want %d", names, par, c, hits)
			}
			if par == 1 {
				evalsAt1 = evals
			} else if evals != evalsAt1 {
				t.Errorf("%v: %d simulations at parallelism %d, %d at 1", names, evals, par, evalsAt1)
			}
		}
	}
}

// TestPlanSpanExecAttrs checks the plan span carries the memo traffic, and
// that a window with a duplicate model opens one partition span per
// distinct profile.
func TestPlanSpanExecAttrs(t *testing.T) {
	opts := DefaultOptions()
	opts.Parallelism = 2
	pl, err := NewPlanner(soc.Kirin990(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder(4096)
	ctx := obs.ContextWithRecorder(context.Background(), rec)
	models := mustModels(t, model.ResNet50, model.ResNet50, model.SqueezeNet)
	if _, err := pl.PlanModelsContext(ctx, models); err != nil {
		t.Fatal(err)
	}
	partitions := 0
	var plan *obs.SpanData
	for _, sd := range rec.Spans() {
		switch sd.Name {
		case "partition":
			partitions++
		case "plan":
			sd := sd
			plan = &sd
		}
	}
	if partitions != 2 {
		t.Errorf("window [A, A, B] opened %d partition spans, want 2", partitions)
	}
	if plan == nil {
		t.Fatal("no plan span recorded")
	}
	evals, hits := pl.ExecStats()
	for key, want := range map[string]uint64{"exec_evals": evals, "exec_memo_hits": hits} {
		a, ok := plan.Attr(key)
		if !ok || uint64(a.AsInt()) != want {
			t.Errorf("plan span %s = %v (present %v), want %d", key, a.AsInt(), ok, want)
		}
	}
}

// TestExecMemoHashCollision files distinct schedules under one hash: a
// lookup must compare the full content and find each schedule's own entry,
// and none for a schedule that was never inserted.
func TestExecMemoHashCollision(t *testing.T) {
	s := soc.Kirin990()
	ps := memoProfiles(t, s, model.ResNet50, model.SqueezeNet)
	k := s.NumProcessors()
	scheds := make([]*pipeline.Schedule, k)
	for proc := range scheds {
		sched, err := pipeline.FromCuts(s, ps[:1], []pipeline.Cuts{pipeline.SingleProcessor(ps[0].NumLayers(), proc, k)})
		if err != nil {
			t.Fatal(err)
		}
		scheds[proc] = sched
	}
	memo := newExecMemo(pipeline.DefaultOptions())
	entries := make([]*execEntry, k-1)
	for i := range entries {
		entries[i] = memo.insert(7, scheds[i])
	}
	for i, sched := range scheds {
		got := memo.find(7, sched.Clone())
		if i < len(entries) && got != entries[i] {
			t.Errorf("schedule %d: found %p, want its own entry %p", i, got, entries[i])
		}
		if i == len(entries) && got != nil {
			t.Errorf("schedule %d was never inserted but matched %p", i, got)
		}
	}
}
