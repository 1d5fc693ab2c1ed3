package hetero2pipe_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hetero2pipe/internal/baseline"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/experiments"
	"hetero2pipe/internal/fleet"
	"hetero2pipe/internal/lap"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
	"hetero2pipe/internal/workload"
)

// benchExperiment runs one paper artefact per iteration at quick scale, so
// `go test -bench .` regenerates every table and figure.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.QuickConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatalf("Run(%s): %v", id, err)
		}
	}
}

// One benchmark per paper table/figure (DESIGN.md §3 index).

func BenchmarkFig1SoloLatency(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2aQueueing(b *testing.B)       { benchExperiment(b, "fig2a") }
func BenchmarkFig2bCounters(b *testing.B)       { benchExperiment(b, "fig2b") }
func BenchmarkTable2Slowdown(b *testing.B)      { benchExperiment(b, "tab2") }
func BenchmarkEq1Ridge(b *testing.B)            { benchExperiment(b, "eq1") }
func BenchmarkFig7Overall(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8aAblationSearch(b *testing.B) { benchExperiment(b, "fig8a") }
func BenchmarkFig8bComponents(b *testing.B)     { benchExperiment(b, "fig8b") }
func BenchmarkFig9MemoryTrace(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10IntraCluster(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig12BubbleLatency(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13Batching(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkSearchSpaceCounting(b *testing.B) { benchExperiment(b, "searchspace") }

// Micro-benchmarks of the planner's building blocks.

func benchProfiles(b *testing.B, names ...string) (*soc.SoC, []*profile.Profile) {
	b.Helper()
	s := soc.Kirin990()
	out := make([]*profile.Profile, len(names))
	for i, n := range names {
		p, err := profile.New(s, model.MustByName(n))
		if err != nil {
			b.Fatal(err)
		}
		out[i] = p
	}
	return s, out
}

func BenchmarkProfileConstruction(b *testing.B) {
	s := soc.Kirin990()
	m := model.MustByName(model.ResNet50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profile.New(s, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionDP(b *testing.B) {
	_, profs := benchProfiles(b, model.BERT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Partition(profs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerEndToEnd(b *testing.B) {
	s, profs := benchProfiles(b, model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50)
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanProfiles(profs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlannerParallelism plans a six-model window at a fixed worker count;
// the Parallelism1 vs ParallelismN pair is the before/after of the parallel
// planning engine (the plans themselves are byte-identical — see the
// differential suite — only the planning latency moves).
func benchPlannerParallelism(b *testing.B, parallelism int) {
	b.Helper()
	s, profs := benchProfiles(b, model.YOLOv4, model.SqueezeNet, model.BERT,
		model.ResNet50, model.VGG16, model.InceptionV4)
	opts := core.DefaultOptions()
	opts.Parallelism = parallelism
	pl, err := core.NewPlanner(s, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanProfiles(profs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerParallelism1(b *testing.B) { benchPlannerParallelism(b, 1) }
func BenchmarkPlannerParallelismN(b *testing.B) { benchPlannerParallelism(b, runtime.GOMAXPROCS(0)) }

// BenchmarkPlanFrontier enumerates the full Pareto frontier over the same
// four-model window as BenchmarkPlannerEndToEnd — the pairing isolates the
// cost of dominance filtering and frontier assembly over single-plan search.
func BenchmarkPlanFrontier(b *testing.B) {
	s, profs := benchProfiles(b, model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50)
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanFrontierProfiles(profs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFrontierWarmCache measures the frontier-mode steady state with
// the whole-frontier memo warm — a cache hit deep-copies every point.
func BenchmarkPlanFrontierWarmCache(b *testing.B) {
	s := soc.Kirin990()
	models := []*model.Model{
		model.MustByName(model.YOLOv4), model.MustByName(model.SqueezeNet),
		model.MustByName(model.BERT), model.MustByName(model.ResNet50),
	}
	opts := core.DefaultOptions()
	opts.PlanCache = 8
	pl, err := core.NewPlanner(s, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pl.PlanFrontierModels(models); err != nil { // warm the memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanFrontierModels(models); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanModelsWarmCache measures a full PlanModels with the cost
// cache warm — the steady state of internal/stream window planning; compare
// against BenchmarkPlanModelsColdCache for the cache's saving.
func BenchmarkPlanModelsWarmCache(b *testing.B) {
	s := soc.Kirin990()
	models := []*model.Model{
		model.MustByName(model.YOLOv4), model.MustByName(model.SqueezeNet),
		model.MustByName(model.BERT), model.MustByName(model.ResNet50),
	}
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pl.PlanModels(models); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanModels(models); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanModelsColdCache re-measures every model each iteration by
// invalidating the cache — the pre-cache behaviour of per-window planning.
func BenchmarkPlanModelsColdCache(b *testing.B) {
	s := soc.Kirin990()
	models := []*model.Model{
		model.MustByName(model.YOLOv4), model.MustByName(model.SqueezeNet),
		model.MustByName(model.BERT), model.MustByName(model.ResNet50),
	}
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.InvalidateCache()
		if _, err := pl.PlanModels(models); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExhaustiveParallelism runs the Fig. 8 exhaustive reference at a fixed
// worker count over a five-model grid (120 orderings).
func benchExhaustiveParallelism(b *testing.B, workers int) {
	b.Helper()
	s, profs := benchProfiles(b, model.SqueezeNet, model.ResNet50,
		model.MobileNetV2, model.GoogLeNet, model.AlexNet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.ExhaustiveParallel(s, profs, pipeline.DefaultOptions(), workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveParallelism1(b *testing.B) { benchExhaustiveParallelism(b, 1) }
func BenchmarkExhaustiveParallelismN(b *testing.B) {
	benchExhaustiveParallelism(b, runtime.GOMAXPROCS(0))
}

func BenchmarkExecutorContention(b *testing.B) {
	s, profs := benchProfiles(b, model.ResNet50, model.VGG16, model.SqueezeNet, model.InceptionV4)
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := pl.PlanProfiles(profs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Execute(plan.Schedule, pipeline.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHungarianLAP(b *testing.B) {
	const n = 32
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = float64((i*7+j*13)%97) + 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := lap.Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBandPlanning(b *testing.B) {
	s, profs := benchProfiles(b, model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Band(s, profs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppBThermal(b *testing.B)          { benchExperiment(b, "appB") }
func BenchmarkClusterSplitAblation(b *testing.B) { benchExperiment(b, "clustersplit") }

func BenchmarkAppDBatching(b *testing.B) { benchExperiment(b, "appD") }

func BenchmarkEnergyExtension(b *testing.B) { benchExperiment(b, "energy") }

func BenchmarkSensitivitySweeps(b *testing.B) { benchExperiment(b, "sensitivity") }

func BenchmarkDepthAblation(b *testing.B) { benchExperiment(b, "depth") }

// Stream serving benchmarks: whole online runs through the scheduler. The
// steady-state pair (identical window mix, stable SoC) is the plan cache's
// target workload — compare the plan-ns/window metric of
// BenchmarkStreamSteadyState against BenchmarkStreamSteadyStateNoPlanCache
// for the memoization saving. The churn pair injects a state-changing
// throttle between windows, retiring every cached signature, and bounds the
// cache's overhead when it can never hit.

func benchStreamRequests(b *testing.B) []stream.Request {
	b.Helper()
	names := make([]string, 0, 24)
	for i := 0; i < 8; i++ {
		names = append(names, model.ResNet50, model.SqueezeNet, model.GoogLeNet)
	}
	models, err := workload.Instantiate(names)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]stream.Request, len(models))
	for i, m := range models {
		reqs[i] = stream.Request{Model: m}
	}
	return reqs
}

// benchStreamRun drives b.N full runs of a 24-request burst (8 identical
// 3-model windows) and reports the planner's wall time and executor
// simulations per window alongside the usual per-run figures.
func benchStreamRun(b *testing.B, planCache int, events []soc.Event) {
	opts := core.DefaultOptions()
	opts.PlanCache = planCache
	pl, err := core.NewPlanner(soc.Kirin990(), opts)
	if err != nil {
		b.Fatal(err)
	}
	cfg := stream.DefaultConfig()
	cfg.MaxWindow = 3
	cfg.MaxBatch = 1
	cfg.Events = events
	sched, err := stream.NewScheduler(pl, cfg)
	if err != nil {
		b.Fatal(err)
	}
	reqs := benchStreamRequests(b)
	b.ReportAllocs()
	b.ResetTimer()
	var planWall time.Duration
	windows := 0
	evals0, _ := pl.ExecStats()
	for i := 0; i < b.N; i++ {
		res, err := sched.Run(reqs, pipeline.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, ws := range res.WindowStats {
			planWall += ws.PlanWall
		}
		windows += res.Windows
	}
	evals1, _ := pl.ExecStats()
	b.ReportMetric(float64(planWall.Nanoseconds())/float64(windows), "plan-ns/window")
	b.ReportMetric(float64(evals1-evals0)/float64(windows), "exec-calls/window")
}

// benchChurnEvents probes an event-free run for its makespan and spreads an
// alternating throttle (1.5 ↔ nominal) across it, so the SoC changes state
// between windows. The plan cache is keyed on that state, not on the event
// count, so once a window has been planned in both states every recurrence
// is a hit. The event count is even, returning the SoC to nominal so every
// b.N iteration replays identically.
func benchChurnEvents(b *testing.B) []soc.Event {
	b.Helper()
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	cfg := stream.DefaultConfig()
	cfg.MaxWindow = 3
	cfg.MaxBatch = 1
	sched, err := stream.NewScheduler(pl, cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sched.Run(benchStreamRequests(b), pipeline.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	events := make([]soc.Event, 6)
	for i := range events {
		factor := 1.5
		if i%2 == 1 {
			factor = 1.0
		}
		events[i] = soc.Event{
			Kind: soc.EventThermalThrottle, Processor: "cpu-big",
			At: time.Duration(i+1) * res.Makespan / 7, Factor: factor,
		}
	}
	return events
}

func BenchmarkStreamSteadyState(b *testing.B)            { benchStreamRun(b, 8, nil) }
func BenchmarkStreamSteadyStateNoPlanCache(b *testing.B) { benchStreamRun(b, 0, nil) }

func BenchmarkStreamChurn(b *testing.B) { benchStreamRun(b, 8, benchChurnEvents(b)) }
func BenchmarkStreamChurnNoPlanCache(b *testing.B) {
	benchStreamRun(b, 0, benchChurnEvents(b))
}

// BenchmarkReplanMissIncremental drives the replan miss path: every
// iteration throttles the last-capability processor (alternating factor so
// each apply is a real state change), invalidates its cost tables, and
// replans the window. The partition DP resumes from the memoized prefix
// rows below the affected stage. Run it with `make bench-miss`.
func BenchmarkReplanMissIncremental(b *testing.B) {
	s := soc.Kirin990()
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	models := []*model.Model{
		model.MustByName(model.YOLOv4), model.MustByName(model.SqueezeNet),
		model.MustByName(model.BERT), model.MustByName(model.ResNet50),
	}
	if _, err := pl.PlanModels(models); err != nil { // fill the memo
		b.Fatal(err)
	}
	last := s.Processors[len(s.Processors)-1].ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		factor := 1.5
		if i%2 == 1 {
			factor = 2.0
		}
		affected, err := s.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: last, Factor: factor})
		if err != nil {
			b.Fatal(err)
		}
		pl.InvalidateProcessors(affected...)
		if _, err := pl.PlanModels(models); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerBeamWidth2 prunes the six-model candidate sweep to a
// two-wide beam (ε = 0.1) — compare against BenchmarkPlannerParallelism1 for
// the pruning saving on large windows. The cost caches are invalidated each
// iteration so the sweep itself, not the memo, is measured.
func BenchmarkPlannerBeamWidth2(b *testing.B) {
	s, profs := benchProfiles(b, model.YOLOv4, model.SqueezeNet, model.BERT,
		model.ResNet50, model.VGG16, model.InceptionV4)
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	opts.BeamWidth = 2
	opts.BeamEpsilon = 0.1
	pl, err := core.NewPlanner(s, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.PlanProfiles(profs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionParametric(b *testing.B) {
	_, profs := benchProfiles(b, model.BERT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.PartitionParametric(profs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleetRun drives b.N full fleet runs — 24 requests sharded across
// three mixed-preset devices under the given policy, plan caches warm after
// the first iteration. The delta against BenchmarkStreamSteadyState bounds
// what the fleet layer (routing, shard fan-out, merge, report) costs over a
// bare scheduler.
func benchFleetRun(b *testing.B, policyName string) {
	reg := obs.NewRegistry("bench")
	presets := []func() *soc.SoC{soc.Kirin990, soc.Snapdragon778G, soc.Snapdragon870}
	devices := make([]*fleet.Device, len(presets))
	for i, preset := range presets {
		popts := core.DefaultOptions()
		popts.PlanCache = 8
		scfg := stream.DefaultConfig()
		scfg.MaxWindow = 3
		scfg.MaxBatch = 1
		dev, err := fleet.NewDevice(fleet.DeviceSpec{
			Name: fmt.Sprintf("dev%d", i), SoC: preset(), Planner: popts, Stream: scfg,
		}, reg, nil)
		if err != nil {
			b.Fatal(err)
		}
		devices[i] = dev
	}
	policy, err := fleet.PolicyByName(policyName)
	if err != nil {
		b.Fatal(err)
	}
	fl, err := fleet.New(devices, fleet.Config{Policy: policy, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	var models []*model.Model
	names := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet}
	for i := 0; i < 24; i++ {
		models = append(models, model.MustByName(names[i%len(names)]))
	}
	reqs := fleet.PoissonArrivals(models, time.Millisecond, 7, len(devices))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fl.Run(reqs, pipeline.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if res.Handoffs != 0 {
			b.Fatalf("steady-state fleet run recorded %d handoffs", res.Handoffs)
		}
	}
}

func BenchmarkFleetSteadyState(b *testing.B)         { benchFleetRun(b, fleet.PolicyHash) }
func BenchmarkFleetSteadyStateAffinity(b *testing.B) { benchFleetRun(b, fleet.PolicyAffinity) }
