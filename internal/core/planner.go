package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/parallel"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Options tune the planner. The zero value disables every optional step;
// use DefaultOptions for the full Hetero²Pipe configuration.
type Options struct {
	// HighQuantile is the percentile threshold splitting requests into
	// high/low contention classes (Sec. V-B).
	HighQuantile float64
	// Mitigation enables Algorithm 2 request re-ordering.
	Mitigation bool
	// WorkStealing enables Algorithm 3 vertical alignment.
	WorkStealing bool
	// TailOptimization enables the tail-bubble local search (the second
	// phase of Sec. V-C).
	TailOptimization bool
	// ExecOptions configure the executor used to evaluate tail-search
	// candidates (and by callers to run the final schedule).
	ExecOptions pipeline.Options
	// Estimator, when set, predicts contention intensity from PMU features
	// (Eq. 1). When nil, intensities are measured directly from solo
	// profiles — the "external profiling" the estimator exists to avoid,
	// kept as a fallback for custom SoCs without a trained model.
	Estimator *contention.Estimator
	// PlanCache, when positive, bounds an LRU memo of whole plans keyed by
	// the canonical window signature (SoC runtime-state key + options
	// fingerprint + ordered model digests; see plancache.go). A window whose
	// signature matches a memoized plan skips partition, mitigation, work
	// stealing and the tail search entirely and receives a deep copy of the
	// cached plan — byte-identical to replanning, since the signature pins
	// every planner input. 0 (the zero value and the default) disables the
	// cache.
	PlanCache int
	// Parallelism bounds the planner's worker pool: per-model partition
	// DPs, candidate-ordering passes, tail-search variants and
	// work-stealing windows fan out across at most this many goroutines.
	// 1 runs strictly sequentially on the caller's goroutine; values ≤ 0
	// auto-size to runtime.GOMAXPROCS(0). The setting is a pure throughput
	// knob — results are merged in deterministic index order, so the chosen
	// plan is byte-identical at every value (proven by the differential
	// suite; see DESIGN.md §6).
	Parallelism int
	// BeamWidth, when positive and below the candidate-ordering count, prunes
	// the candidate sweep: every candidate is first priced by a cheap proxy
	// (its DP-cut schedule executed as-is, no stealing or tail search), only
	// the BeamWidth best-proxy candidates run the full vertical pass, and the
	// sweep then escalates through the remaining candidates in proxy order
	// until the best executed makespan is within (1+BeamEpsilon) of the
	// window's makespan lower bound. Because the lower bound is also a lower
	// bound on the exact planner's makespan, the returned plan is provably
	// within (1+BeamEpsilon)× of exact — unconditionally (see DESIGN.md §14).
	// Zero (and any width ≥ the candidate count, absent a deadline) falls
	// through to the exact sweep, byte-identically.
	BeamWidth int
	// BeamEpsilon is the beam's relative regret bound ε ≥ 0: escalation
	// stops once best ≤ (1+ε)·lower-bound. 0 keeps escalating until the
	// bound is met exactly or every candidate is priced — still cheaper than
	// the exact sweep whenever the bound closes early, and identical in
	// result quality otherwise.
	BeamEpsilon float64
	// AnytimeDeadline, when positive, bounds the beam sweep's wall-clock
	// time: after the first BeamWidth candidates (at least one), escalation
	// stops when the deadline has elapsed, whatever the regret bound says.
	// The deadline trades the determinism invariant for latency — two runs
	// under load may prune at different points — so it is off by default and
	// excluded from the differential suite's byte-identity claims.
	AnytimeDeadline time.Duration
	// Metrics, when set, receives planner observability: plan wall-time
	// (planner_plan_seconds), plans completed (planner_plans_total), DP
	// cells evaluated (planner_dp_cells_total), cost-cache traffic
	// (planner_cache_{hits,misses}_total), incremental partition reuse
	// (planner_incremental_reuse_total), candidate simulations run and
	// served from the per-plan executor memo
	// (planner_exec_evaluations_total, planner_exec_memo_hits_total) and —
	// when PlanCache is enabled — whole-plan cache traffic
	// (planner_plan_cache_{hits,misses}_total).
	// Nil disables the registry writes
	// at negligible cost; the Planner-level counters (CacheStats, DPCells,
	// ExecStats) are always live. Note ExecOptions.Metrics is deliberately separate:
	// the planner leaves it nil so its internal candidate evaluations do
	// not pollute executor metrics (see DESIGN.md §9).
	Metrics *obs.Registry
	// Logger, when set, receives a debug record per completed plan (wall
	// time, cache traffic) carrying the active plan span id under the "span"
	// key when tracing is armed. Nil disables logging.
	Logger *slog.Logger
}

// DefaultOptions returns the full Hetero²Pipe configuration.
func DefaultOptions() Options {
	return Options{
		HighQuantile:     0.5,
		Mitigation:       true,
		WorkStealing:     true,
		TailOptimization: true,
		ExecOptions:      pipeline.DefaultOptions(),
		Parallelism:      runtime.GOMAXPROCS(0),
	}
}

// NoCTOptions returns the paper's "Hetero²Pipe (No C/T)" ablation: no
// contention mitigation, no tail optimisation.
func NoCTOptions() Options {
	o := DefaultOptions()
	o.Mitigation = false
	o.TailOptimization = false
	return o
}

// Planner plans multi-DNN pipelines for one SoC. It is safe for concurrent
// use: all mutable state lives in the lock-guarded caches and memos and in
// atomic counters.
type Planner struct {
	soc   *soc.SoC
	opts  Options
	cache *costCache
	// planCache memoizes whole plans behind the state-keyed window
	// signature; nil when Options.PlanCache ≤ 0. optsFP is the planner's
	// options fingerprint, computed once — it never changes after
	// construction.
	planCache *planCache
	optsFP    string
	// partMemo memoizes per-model Algorithm-1 DP state, so a replan after a
	// degradation event resumes each DP below the first affected stage (see
	// replan.go). lapMemo memoizes Algorithm-2 assignments by class-vector
	// content (a pure function of its inputs, so it never invalidates).
	partMemo *partitionMemo
	lapMemo  *mitigationMemo

	// dpCells accumulates DP cells evaluated across the planner's lifetime.
	dpCells atomic.Uint64
	// incrReuse counts partitions that reused memoized DP state — fully
	// skipped or resumed mid-table — across the planner's lifetime.
	incrReuse atomic.Uint64
	// execEvals and execHits accumulate the per-plan executor memos'
	// simulations run and calls served from a memo (see execmemo.go).
	execEvals, execHits atomic.Uint64
	// Registry handles, resolved once at construction (detached no-op
	// instruments when Options.Metrics is nil).
	mPlans        *obs.Counter
	mDPCells      *obs.Counter
	mPlanSeconds  *obs.Histogram
	mFrontiers    *obs.Counter
	mFrontierSize *obs.Histogram
	mIncrReuse    *obs.Counter
	mExecEvals    *obs.Counter
	mExecHits     *obs.Counter
}

// frontierSizeBuckets bound the planner_frontier_size histogram: the
// frontier is capped by the candidate count (6 under DefaultOptions),
// with headroom for custom orderings.
func frontierSizeBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16}
}

// NewPlanner validates the SoC and returns a planner.
func NewPlanner(s *soc.SoC, opts Options) (*Planner, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.HighQuantile < 0 || opts.HighQuantile > 1 {
		return nil, fmt.Errorf("core: high quantile %g outside [0,1]", opts.HighQuantile)
	}
	if opts.BeamWidth < 0 {
		return nil, fmt.Errorf("core: beam width %d negative", opts.BeamWidth)
	}
	if opts.BeamEpsilon < 0 || math.IsNaN(opts.BeamEpsilon) || math.IsInf(opts.BeamEpsilon, 0) {
		return nil, fmt.Errorf("core: beam epsilon %g not a finite non-negative value", opts.BeamEpsilon)
	}
	if opts.AnytimeDeadline < 0 {
		return nil, fmt.Errorf("core: anytime deadline %v negative", opts.AnytimeDeadline)
	}
	reg := opts.Metrics
	pl := &Planner{
		soc:           s,
		opts:          opts,
		cache:         newCostCache(s, reg),
		mPlans:        reg.Counter("planner_plans_total"),
		mDPCells:      reg.Counter("planner_dp_cells_total"),
		mPlanSeconds:  reg.Histogram("planner_plan_seconds", obs.LatencyBuckets()),
		mFrontiers:    reg.Counter("planner_frontiers_total"),
		mFrontierSize: reg.Histogram("planner_frontier_size", frontierSizeBuckets()),
		mIncrReuse:    reg.Counter("planner_incremental_reuse_total"),
		mExecEvals:    reg.Counter("planner_exec_evaluations_total"),
		mExecHits:     reg.Counter("planner_exec_memo_hits_total"),
		partMemo:      newPartitionMemo(),
		lapMemo:       newMitigationMemo(),
	}
	if opts.PlanCache > 0 {
		pl.planCache = newPlanCache(opts.PlanCache, reg)
		pl.optsFP = optionsFingerprint(opts)
	}
	return pl, nil
}

// DPCells reports the lifetime count of Algorithm-1 DP cells evaluated by
// this planner — the planning-side work metric behind the run report.
func (pl *Planner) DPCells() uint64 { return pl.dpCells.Load() }

// ExecStats reports the lifetime count of candidate simulations the planner
// ran and of candidate evaluations its per-plan executor memos served
// without simulating.
func (pl *Planner) ExecStats() (evals, hits uint64) {
	return pl.execEvals.Load(), pl.execHits.Load()
}

// workers resolves Options.Parallelism to a concrete pool size.
func (pl *Planner) workers() int {
	return parallel.Workers(pl.opts.Parallelism)
}

// Plan is the planner's result: the executable schedule plus the
// intermediate artefacts (ordering, classes, per-model cuts) the experiments
// inspect.
type Plan struct {
	// Schedule is the executable pipeline plan (requests in mitigated
	// order).
	Schedule *pipeline.Schedule
	// Order[p] is the original request index now at position p.
	Order []int
	// Classes[p] and Intensities[p] describe the request at position p.
	Classes     []contention.Class
	Intensities []float64
	// Cuts[p] are the stage boundaries of the request at position p.
	Cuts []pipeline.Cuts
	// HorizontalMakespans[p] is the Algorithm-1 bottleneck stage time (s)
	// of the request at position p.
	HorizontalMakespans []float64
}

// cancelErr wraps a context's termination cause so callers can match both
// the core layer and the underlying context sentinel with errors.Is.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("core: planning cancelled: %w", ctx.Err())
}

// PlanModels profiles the requests and runs the two-step optimisation:
// horizontal DP partitioning per model (P1), contention-aware re-ordering
// (P3), and vertical alignment with tail optimisation (P2).
func (pl *Planner) PlanModels(models []*model.Model) (*Plan, error) {
	return pl.PlanModelsContext(context.Background(), models)
}

// PlanModelsContext is PlanModels under a cancellable context: cancellation
// is observed inside the profiling fan-out, the per-model partition DPs and
// every worker-pool loop, and surfaces as an error wrapping ctx.Err().
func (pl *Planner) PlanModelsContext(ctx context.Context, models []*model.Model) (*Plan, error) {
	profiles := make([]*profile.Profile, len(models))
	err := parallel.ForErr(pl.workers(), len(models), func(i int) error {
		if ctx.Err() != nil {
			return cancelErr(ctx)
		}
		p, err := pl.Profile(models[i])
		if err != nil {
			return fmt.Errorf("core: profiling %s: %w", models[i].Name, err)
		}
		profiles[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pl.PlanProfilesContext(ctx, profiles)
}

// PlanProfiles is PlanModels for pre-built profiles (the planner never
// re-profiles, matching the paper's measure-once workflow).
func (pl *Planner) PlanProfiles(profiles []*profile.Profile) (*Plan, error) {
	return pl.PlanProfilesContext(context.Background(), profiles)
}

// PlanProfilesContext is PlanProfiles under a cancellable context. Each call
// runs under a "plan" span carrying the cache-traffic delta of this plan
// (hits on cost tables reused from earlier plans, misses on fresh
// measurements) and emits one debug log record when a logger is configured.
// With Options.PlanCache enabled the span additionally carries a
// "plan_cache" attribute ("hit" or "miss"); on a hit the whole two-step
// optimisation is skipped and the memoized plan is returned as a deep copy.
func (pl *Planner) PlanProfilesContext(ctx context.Context, profiles []*profile.Profile) (*Plan, error) {
	start := time.Now()
	hits0, misses0 := pl.CacheStats()
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, sp = obs.StartSpan(ctx, "plan", obs.Int("profiles", int64(len(profiles))))
	}
	var key planKey
	if pl.planCache != nil {
		key = pl.windowKey(modeSinglePlan, profiles)
		if plan := pl.planCache.get(key, profiles); plan != nil {
			sp.SetAttrs(obs.Str("plan_cache", "hit"))
			sp.End()
			wall := time.Since(start)
			pl.mPlans.Inc()
			pl.mPlanSeconds.ObserveDuration(wall)
			if pl.opts.Logger != nil {
				pl.opts.Logger.Log(ctx, slog.LevelDebug, "plan complete",
					"profiles", len(profiles), "wall", wall,
					"plan_cache", "hit", "span", sp.IDHex())
			}
			return plan, nil
		}
	}
	plan, err := pl.planProfiles(ctx, profiles)
	hits1, misses1 := pl.CacheStats()
	if sp != nil {
		sp.SetAttrs(
			obs.Int("cache_hits", int64(hits1-hits0)),
			obs.Int("cache_misses", int64(misses1-misses0)))
		if pl.planCache != nil {
			sp.SetAttrs(obs.Str("plan_cache", "miss"))
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	if pl.planCache != nil {
		pl.planCache.put(key, profiles, plan)
	}
	wall := time.Since(start)
	pl.mPlans.Inc()
	pl.mPlanSeconds.ObserveDuration(wall)
	if pl.opts.Logger != nil {
		pl.opts.Logger.Log(ctx, slog.LevelDebug, "plan complete",
			"profiles", len(profiles), "wall", wall,
			"cache_hits", hits1-hits0, "cache_misses", misses1-misses0,
			"span", sp.IDHex())
	}
	return plan, nil
}

// PlanFrontierModels is PlanModels in frontier mode: instead of collapsing
// the candidate sweep to the min-makespan plan, it returns the whole
// non-dominated frontier over (makespan, throughput, energy, peak memory).
func (pl *Planner) PlanFrontierModels(models []*model.Model) (*Frontier, error) {
	return pl.PlanFrontierModelsContext(context.Background(), models)
}

// PlanFrontierModelsContext is PlanFrontierModels under a cancellable
// context.
func (pl *Planner) PlanFrontierModelsContext(ctx context.Context, models []*model.Model) (*Frontier, error) {
	profiles := make([]*profile.Profile, len(models))
	err := parallel.ForErr(pl.workers(), len(models), func(i int) error {
		if ctx.Err() != nil {
			return cancelErr(ctx)
		}
		p, err := pl.Profile(models[i])
		if err != nil {
			return fmt.Errorf("core: profiling %s: %w", models[i].Name, err)
		}
		profiles[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pl.PlanFrontierProfilesContext(ctx, profiles)
}

// PlanFrontierProfiles is PlanFrontierModels for pre-built profiles.
func (pl *Planner) PlanFrontierProfiles(profiles []*profile.Profile) (*Frontier, error) {
	return pl.PlanFrontierProfilesContext(context.Background(), profiles)
}

// PlanFrontierProfilesContext enumerates the Pareto frontier of the
// candidate sweep under a cancellable context. Each call runs under a
// "plan" span with objective="frontier" and a frontier_size attribute.
// With Options.PlanCache enabled whole frontiers are memoized alongside
// single plans under the same state/options/digest signature with a
// distinct objective-mode dimension, so the two modes never collide; hits
// return a deep copy. The frontier's first point (min makespan, lowest
// candidate index) is byte-identical to PlanProfilesContext's plan —
// pinned by the differential suite.
func (pl *Planner) PlanFrontierProfilesContext(ctx context.Context, profiles []*profile.Profile) (*Frontier, error) {
	start := time.Now()
	hits0, misses0 := pl.CacheStats()
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, sp = obs.StartSpan(ctx, "plan",
			obs.Int("profiles", int64(len(profiles))), obs.Str("objective", "frontier"))
	}
	var key planKey
	if pl.planCache != nil {
		key = pl.windowKey(modeFrontier, profiles)
		if f := pl.planCache.getFrontier(key, profiles); f != nil {
			sp.SetAttrs(obs.Str("plan_cache", "hit"), obs.Int("frontier_size", int64(f.Size())))
			sp.End()
			wall := time.Since(start)
			pl.mPlans.Inc()
			pl.mFrontiers.Inc()
			pl.mFrontierSize.Observe(float64(f.Size()))
			pl.mPlanSeconds.ObserveDuration(wall)
			if pl.opts.Logger != nil {
				pl.opts.Logger.Log(ctx, slog.LevelDebug, "frontier complete",
					"profiles", len(profiles), "wall", wall, "points", f.Size(),
					"plan_cache", "hit", "span", sp.IDHex())
			}
			return f, nil
		}
	}
	f, err := pl.planFrontierProfiles(ctx, profiles)
	hits1, misses1 := pl.CacheStats()
	if sp != nil {
		sp.SetAttrs(
			obs.Int("cache_hits", int64(hits1-hits0)),
			obs.Int("cache_misses", int64(misses1-misses0)))
		if err == nil {
			sp.SetAttrs(obs.Int("frontier_size", int64(f.Size())))
		}
		if pl.planCache != nil {
			sp.SetAttrs(obs.Str("plan_cache", "miss"))
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	if pl.planCache != nil {
		pl.planCache.putFrontier(key, profiles, f)
	}
	wall := time.Since(start)
	pl.mPlans.Inc()
	pl.mFrontiers.Inc()
	pl.mFrontierSize.Observe(float64(f.Size()))
	pl.mPlanSeconds.ObserveDuration(wall)
	if pl.opts.Logger != nil {
		pl.opts.Logger.Log(ctx, slog.LevelDebug, "frontier complete",
			"profiles", len(profiles), "wall", wall, "points", f.Size(),
			"cache_hits", hits1-hits0, "cache_misses", misses1-misses0,
			"span", sp.IDHex())
	}
	return f, nil
}

// planFrontierProfiles is the uncached frontier enumeration: the shared
// candidate sweep followed by the dominance filter.
func (pl *Planner) planFrontierProfiles(ctx context.Context, profiles []*profile.Profile) (*Frontier, error) {
	if len(profiles) == 0 {
		// An empty window has exactly one (degenerate) plan; keep Select
		// total by returning a one-point frontier around it.
		empty := &Plan{Schedule: &pipeline.Schedule{SoC: pl.soc}}
		return &Frontier{Points: []FrontierPoint{{Plan: empty}}}, nil
	}
	plans, objs, err := pl.planCandidates(ctx, profiles)
	if err != nil {
		return nil, err
	}
	return newFrontier(plans, objs), nil
}

func (pl *Planner) planProfiles(ctx context.Context, profiles []*profile.Profile) (*Plan, error) {
	if len(profiles) == 0 {
		return &Plan{Schedule: &pipeline.Schedule{SoC: pl.soc}}, nil
	}
	plans, objs, err := pl.planCandidates(ctx, profiles)
	if err != nil {
		return nil, err
	}
	// The first candidate achieving the minimal executed makespan wins,
	// exactly as the sequential strict-improvement loop decides. The
	// comparison is in float seconds, preserving the pre-frontier planner's
	// tie semantics bit for bit. Nil holes are candidates a beam sweep
	// pruned (the exact sweep leaves none).
	var bestPlan *Plan
	var bestSpan float64
	for ci, plan := range plans {
		if plan == nil {
			continue
		}
		if span := objs[ci].Makespan.Seconds(); bestPlan == nil || span < bestSpan {
			bestPlan, bestSpan = plan, span
		}
	}
	return bestPlan, nil
}

// planCandidates runs the full two-step optimisation and returns every
// candidate ordering's plan with its executed objective vector, in
// deterministic candidate order. The single-objective planner collapses
// this sweep to the min-makespan plan; frontier mode keeps the
// non-dominated set — the other axes come for free because every candidate
// is already priced by the executor.
func (pl *Planner) planCandidates(ctx context.Context, profiles []*profile.Profile) ([]*Plan, []Objective, error) {
	m := len(profiles)
	k := pl.soc.NumProcessors()

	// Step 1 — horizontal: Algorithm 1 per distinct profile, independently.
	// The cost cache hands duplicate models in a window one shared Profile,
	// so each distinct profile is partitioned once and its duplicates share
	// the (read-only) cuts. The DPs share nothing, so they fan out across
	// the worker pool; each writes only its own index.
	cuts := make([]pipeline.Cuts, m)
	makespans := make([]float64, m)
	distinct := make([]int, 0, m)
	for i, p := range profiles {
		if !slices.Contains(profiles[:i], p) {
			distinct = append(distinct, i)
		}
	}
	err := parallel.ForErr(pl.workers(), len(distinct), func(di int) error {
		i := distinct[di]
		c, best, err := pl.partition(ctx, profiles[i])
		if err != nil {
			return fmt.Errorf("core: partitioning %s: %w", profiles[i].Model().Name, err)
		}
		cuts[i] = c
		makespans[i] = best
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, p := range profiles {
		if f := slices.Index(profiles, p); f != i {
			cuts[i], makespans[i] = cuts[f], makespans[f]
		}
	}

	// Contention intensities and H/L classes.
	intensities := make([]float64, m)
	for i, p := range profiles {
		if pl.opts.Estimator != nil {
			intensities[i] = pl.opts.Estimator.Intensity(p.Model())
		} else {
			intensities[i] = measuredIntensity(p)
		}
	}
	classes := contention.Classify(intensities, pl.opts.HighQuantile)

	// Step 2a — ordering candidates: identity, a longest-first fill (big
	// horizontal makespans enter the pipeline early so the drain tail is
	// short), shortest-first, and — with mitigation enabled — the
	// Algorithm-2 relocation applied to each. Every candidate runs through
	// the full vertical machinery (step 2b/2c) and the executed makespan
	// picks the winner: the re-ordering is a contention heuristic and the
	// simulator is the oracle.
	candidates := [][]int{identityOrder(m), longestFirstOrder(makespans), shortestFirstOrder(makespans)}
	if pl.opts.Mitigation {
		base := len(candidates)
		for _, cand := range candidates[:base] {
			mitigated := pl.lapMemo.mitigate(permuteClasses(classes, cand), k)
			candidates = append(candidates, composeOrders(cand, mitigated))
		}
	}

	// Every schedule the sweep simulates goes through one executor memo,
	// so each distinct schedule runs once per plan (see execmemo.go).
	memo := newExecMemo(pl.opts.ExecOptions)
	defer pl.publishExecStats(ctx, memo)

	// Beam/anytime mode prunes the sweep with the provable regret bound
	// (see beam.go); the exact sweep below prices every candidate.
	if pl.beamActive(len(candidates)) {
		return pl.beamCandidates(ctx, memo, profiles, cuts, classes, intensities, makespans, candidates, k)
	}

	// Identical orderings (with m = 1 all six candidates are [0]) run one
	// vertical pass: a repeat takes its first occurrence's plan and
	// objective. The winner scan's strict < and the frontier's
	// lowest-index tie-break both keep the first occurrence, so the result
	// is unchanged, and the shared plan never surfaces twice.
	firstCand := make([]int, len(candidates))
	uniq := make([]int, 0, len(candidates))
	for ci, cand := range candidates {
		firstCand[ci] = slices.IndexFunc(candidates, func(c []int) bool { return slices.Equal(c, cand) })
		if firstCand[ci] == ci {
			uniq = append(uniq, ci)
		}
	}

	// Every candidate's vertical pass is independent (each works on its own
	// cut copies); evaluate them across the pool and merge in candidate
	// order, so both the single-objective winner scan and the frontier's
	// candidate-index tie-breaks are byte-identical at every parallelism.
	plans := make([]*Plan, len(candidates))
	objs := make([]Objective, len(candidates))
	err = parallel.ForErr(pl.workers(), len(uniq), func(ui int) error {
		if ctx.Err() != nil {
			return cancelErr(ctx)
		}
		ci := uniq[ui]
		plan, obj, err := pl.verticalPass(ctx, memo, profiles, cuts, classes, intensities, makespans, candidates[ci], k)
		if err != nil {
			return err
		}
		plans[ci] = plan
		objs[ci] = obj
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for ci, f := range firstCand {
		plans[ci], objs[ci] = plans[f], objs[f]
	}
	return plans, objs, nil
}

// publishExecStats adds one plan's executor-memo traffic to the planner's
// lifetime counters and registry, and to the active plan span as the
// exec_evals and exec_memo_hits attributes.
func (pl *Planner) publishExecStats(ctx context.Context, memo *execMemo) {
	evals, hits := memo.stats()
	pl.execEvals.Add(uint64(evals))
	pl.execHits.Add(uint64(hits))
	pl.mExecEvals.Add(uint64(evals))
	pl.mExecHits.Add(uint64(hits))
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetAttrs(obs.Int("exec_evals", int64(evals)), obs.Int("exec_memo_hits", int64(hits)))
	}
}

// verticalPass runs steps 2b (guarded work stealing) and 2c (tail local
// search) for one candidate ordering and returns the plan plus its executed
// objective vector (makespan, throughput, energy, peak memory).
func (pl *Planner) verticalPass(ctx context.Context, memo *execMemo, profiles []*profile.Profile, cuts []pipeline.Cuts,
	classes []contention.Class, intensities, makespans []float64,
	order []int, k int) (*Plan, Objective, error) {
	m := len(order)
	ordProfiles := make([]*profile.Profile, m)
	ordCuts := make([]pipeline.Cuts, m)
	ordClasses := make([]contention.Class, m)
	ordIntensities := make([]float64, m)
	ordMakespans := make([]float64, m)
	for pos, orig := range order {
		ordProfiles[pos] = profiles[orig]
		c := make(pipeline.Cuts, len(cuts[orig]))
		copy(c, cuts[orig])
		ordCuts[pos] = c
		ordClasses[pos] = classes[orig]
		ordIntensities[pos] = intensities[orig]
		ordMakespans[pos] = makespans[orig]
	}

	// Step 2b — vertical: Algorithm 3 work stealing per contention window,
	// accepted only when the executed makespan improves: alignment reduces
	// the analytic bubbles (Eq. 3) but can extend co-execution overlap,
	// and the slowdown model arbitrates.
	if pl.opts.WorkStealing {
		stolen := make([]pipeline.Cuts, m)
		for i := range ordCuts {
			stolen[i] = make(pipeline.Cuts, len(ordCuts[i]))
			copy(stolen[i], ordCuts[i])
		}
		WorkStealParallel(ordProfiles, stolen, k, pl.workers())
		keep, err := pl.betterCuts(memo, ordProfiles, ordCuts, stolen)
		if err != nil {
			return nil, Objective{}, fmt.Errorf("core: work stealing: %w", err)
		}
		ordCuts = keep
	}

	sched, err := pipeline.FromCuts(pl.soc, ordProfiles, ordCuts)
	if err != nil {
		return nil, Objective{}, fmt.Errorf("core: assembling schedule: %w", err)
	}

	// Step 2c — tail-bubble local search.
	if pl.opts.TailOptimization {
		sched, err = optimizeTail(ctx, memo.execute, sched, pl.workers())
		if err != nil {
			return nil, Objective{}, fmt.Errorf("core: tail optimisation: %w", err)
		}
		for i := range ordCuts {
			ordCuts[i] = cutsOf(sched, i)
		}
	}

	res, err := memo.execute(sched)
	if err != nil {
		return nil, Objective{}, fmt.Errorf("core: evaluating candidate order: %w", err)
	}

	return &Plan{
		Schedule:            sched,
		Order:               order,
		Classes:             ordClasses,
		Intensities:         ordIntensities,
		Cuts:                ordCuts,
		HorizontalMakespans: ordMakespans,
	}, objectiveOf(res), nil
}

// objectiveOf projects an executed pipeline result onto the planner's
// objective axes.
func objectiveOf(res *pipeline.Result) Objective {
	return Objective{
		Makespan:        res.Makespan,
		Throughput:      res.Throughput(),
		EnergyJoules:    res.EnergyJoules,
		PeakMemoryBytes: res.PeakMemoryBytes,
	}
}

// measuredIntensity is the fallback ground-truth intensity: solo bus demand
// on the reference (big CPU) processor, or the first processor that
// supports the whole model.
func measuredIntensity(p *profile.Profile) float64 {
	n := p.NumLayers()
	ref := -1
	for k := 0; k < p.NumProcessors(); k++ {
		if p.Table(k).Proc().Kind == soc.KindCPUBig && p.Table(k).Supported(0, n-1) {
			ref = k
			break
		}
	}
	if ref < 0 {
		for k := 0; k < p.NumProcessors(); k++ {
			if p.Table(k).Supported(0, n-1) {
				ref = k
				break
			}
		}
	}
	if ref < 0 {
		return 0
	}
	return p.Footprint(ref, 0, n-1).DemandGBps
}

// OptimizeTail performs the Sec. V-C second phase: a local search that, for
// each request, exhaustively evaluates collapsing it onto each single
// processor (search space K per request, as the paper notes) and keeps
// whichever variant minimises the executed makespan. The sweep runs from
// the pipeline tail backwards — the drain region where bubbles concentrate
// — but covers every request, which also lets the planner discover
// whole-model placements (Band-style) whenever slicing a request does not
// pay its copy overheads. The Fig. 8 reference searchers apply the same
// step to every candidate ordering so their search space strictly contains
// the planner's.
func OptimizeTail(sched *pipeline.Schedule, opts pipeline.Options) (*pipeline.Schedule, error) {
	return OptimizeTailContext(context.Background(), sched, opts, 1)
}

// OptimizeTailContext runs the tail search over a worker pool under a
// cancellable context: for each request (still swept tail-first — the sweep
// itself is a dependent chain, each request building on the incumbent
// schedule) the K single-processor variants are evaluated concurrently and
// merged in processor order, so the variant adopted is the one the
// sequential strict-improvement scan would adopt: the lowest-numbered
// processor achieving the minimal makespan. Variants for one request are
// independent because a variant differs from the incumbent only in the
// request's own stage row, which each candidate overwrites wholesale.
func OptimizeTailContext(ctx context.Context, sched *pipeline.Schedule, opts pipeline.Options, workers int) (*pipeline.Schedule, error) {
	return optimizeTail(ctx, func(s *pipeline.Schedule) (*pipeline.Result, error) {
		return pipeline.Execute(s, opts)
	}, sched, workers)
}

// optimizeTail is the tail search pricing every schedule through execute:
// the planner passes its per-plan executor memo, so schedules the vertical
// pass has already priced are not simulated again.
func optimizeTail(ctx context.Context, execute func(*pipeline.Schedule) (*pipeline.Result, error),
	sched *pipeline.Schedule, workers int) (*pipeline.Schedule, error) {
	m := sched.NumRequests()
	k := sched.NumStages()
	if m == 0 {
		return sched, nil
	}
	base, err := execute(sched)
	if err != nil {
		return nil, err
	}
	bestSched, bestSpan := sched, base.Makespan

	cands := make([]*pipeline.Schedule, k)
	spans := make([]time.Duration, k)
	for i := m - 1; i >= 0; i-- {
		if ctx.Err() != nil {
			return nil, cancelErr(ctx)
		}
		n := sched.Profiles[i].NumLayers()
		incumbent := bestSched
		parallel.For(workers, k, func(proc int) {
			cands[proc] = nil
			if !sched.Profiles[i].Table(proc).Supported(0, n-1) {
				return
			}
			row := pipeline.SingleProcessor(n, proc, k).RangesOf()
			if slices.Equal(incumbent.Stages[i], row) {
				// The variant is the incumbent itself: its makespan equals
				// bestSpan, so it can never strictly improve.
				return
			}
			cand := incumbent.Clone()
			cand.Stages[i] = row
			res, err := execute(cand)
			if err != nil {
				return // infeasible variant; keep searching
			}
			cands[proc] = cand
			spans[proc] = res.Makespan
		})
		for proc := 0; proc < k; proc++ {
			if cands[proc] != nil && spans[proc] < bestSpan {
				bestSched, bestSpan = cands[proc], spans[proc]
			}
		}
	}
	return bestSched, nil
}

// identityOrder returns 0..m-1.
func identityOrder(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// longestFirstOrder sorts request indices by descending horizontal
// makespan, a classic pipeline-fill heuristic: long requests enter first so
// the drain tail is short.
func longestFirstOrder(makespans []float64) []int {
	out := identityOrder(len(makespans))
	sort.SliceStable(out, func(a, b int) bool {
		return makespans[out[a]] > makespans[out[b]]
	})
	return out
}

// shortestFirstOrder sorts request indices by ascending horizontal
// makespan: small requests fill quickly, keeping the fast processors fed
// while the heavy tail drains.
func shortestFirstOrder(makespans []float64) []int {
	out := identityOrder(len(makespans))
	sort.SliceStable(out, func(a, b int) bool {
		return makespans[out[a]] < makespans[out[b]]
	})
	return out
}

// permuteClasses applies an ordering to a class slice.
func permuteClasses(classes []contention.Class, order []int) []contention.Class {
	out := make([]contention.Class, len(order))
	for pos, orig := range order {
		out[pos] = classes[orig]
	}
	return out
}

// composeOrders returns the ordering that first applies base and then the
// relative permutation rel: out[p] = base[rel[p]].
func composeOrders(base, rel []int) []int {
	out := make([]int, len(base))
	for p, r := range rel {
		out[p] = base[r]
	}
	return out
}

// betterCuts returns whichever cut set executes faster for the fixed order.
func (pl *Planner) betterCuts(memo *execMemo, profiles []*profile.Profile, a, b []pipeline.Cuts) ([]pipeline.Cuts, error) {
	schedA, err := pipeline.FromCuts(pl.soc, profiles, a)
	if err != nil {
		return nil, err
	}
	resA, err := memo.execute(schedA)
	if err != nil {
		return nil, err
	}
	schedB, err := pipeline.FromCuts(pl.soc, profiles, b)
	if err != nil {
		// Stolen cuts can in principle assemble into an invalid schedule
		// only through a bug; fall back to the originals defensively.
		return a, nil
	}
	resB, err := memo.execute(schedB)
	if err != nil {
		return a, nil
	}
	if resB.Makespan < resA.Makespan {
		return b, nil
	}
	return a, nil
}

// cutsOf recovers the boundary vector of request i from a schedule.
func cutsOf(sched *pipeline.Schedule, i int) pipeline.Cuts {
	k := sched.NumStages()
	n := sched.Profiles[i].NumLayers()
	c := make(pipeline.Cuts, k+1)
	next := 0
	for st := 0; st < k; st++ {
		c[st] = next
		r := sched.Stages[i][st]
		if !r.Empty() {
			next = r.To + 1
		}
	}
	c[k] = n
	return c
}
