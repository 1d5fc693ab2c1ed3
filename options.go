package hetero2pipe

import (
	"log/slog"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// config is the assembled system configuration NewSystem builds from its
// Option list.
type config struct {
	planner core.Options
	stream  stream.Config
	metrics *obs.Registry
	logger  *slog.Logger
	spans   *obs.SpanRecorder
	// fleetSize > 0 assembles a sharded serving fleet (WithFleet);
	// fleetPolicy names its routing policy ("" = consistent hashing).
	fleetSize   int
	fleetPolicy string
	// tracing arms per-request distributed tracing (WithRequestTracing);
	// traceCap bounds the flight-recorder store.
	tracing  bool
	traceCap int
	// sloBudgets maps SLO class names to target miss fractions
	// (WithSLOBudget); non-empty arms the SLO monitor.
	sloBudgets map[string]float64
}

func defaultConfig() config {
	return config{planner: core.DefaultOptions(), stream: stream.DefaultConfig()}
}

// Option configures a System. Options compose left to right; later options
// override earlier ones.
type Option interface {
	apply(*config)
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithParallelism bounds the planner's worker pool (1 = strictly
// sequential, ≤ 0 = auto-size to GOMAXPROCS). The planned result is
// byte-identical at every setting — the engine merges parallel work in
// deterministic index order — so this is purely a planning-latency knob.
func WithParallelism(n int) Option {
	return optionFunc(func(c *config) { c.planner.Parallelism = n })
}

// WithPlanCache bounds an LRU memo of whole plans keyed by the canonical
// window signature (SoC runtime-state key + planner options fingerprint +
// ordered model digests): a window whose signature matches a memoized plan
// skips the entire two-step optimisation and receives a deep copy,
// byte-identical to replanning. The state key is computed from the SoC's
// current derating (throttle, frequency, offline, bus), so degradation
// events flush nothing: each state has its own entries, and a SoC that
// returns to an earlier state — a governor cycling between a few operating
// points — is served that state's plans again. It pays off whenever request
// mixes and SoC states recur. n ≤ 0 disables the cache (the default).
func WithPlanCache(n int) Option {
	return optionFunc(func(c *config) { c.planner.PlanCache = n })
}

// WithWindow caps how many queued requests each online planning window
// takes (RunStream). Larger windows give the planner more freedom but grow
// its search space.
func WithWindow(n int) Option {
	return optionFunc(func(c *config) { c.stream.MaxWindow = n })
}

// WithMaxBatch bounds Appendix-D coalescing of lightweight same-model
// requests inside each planning window; 1 disables batching.
func WithMaxBatch(n int) Option {
	return optionFunc(func(c *config) { c.stream.MaxBatch = n })
}

// WithDegradationEvents injects degradation events (thermal throttle,
// frequency scaling, processor offline/online, bus squeeze) on the virtual
// clock of every RunStream call whose StreamConfig carries no events of its
// own. Build events directly or parse them with ParseEvents.
func WithDegradationEvents(events ...Event) Option {
	return optionFunc(func(c *config) { c.stream.Events = append([]soc.Event(nil), events...) })
}

// WithMetrics attaches a metrics registry to the system: the planner
// (plan wall-time, DP cells, cache hit ratio), the executor (slices,
// slowdown distribution, bubble time, admission stalls, peak memory) and
// the stream scheduler (per-window latency, replans, requeues, deadline
// misses) all record into it. Snapshot the registry at any time, or
// export it with WritePrometheus / PublishExpvar. Nil disables metrics
// (the default); instruments on a nil registry are no-ops.
func WithMetrics(reg *MetricsRegistry) Option {
	return optionFunc(func(c *config) { c.metrics = reg })
}

// WithLogger attaches a structured logger to the system: the planner (plan
// completions, debug), the executor (admission stalls, debug) and the
// stream scheduler (degradation events applied at info; window interrupts,
// plan-retry backoffs and deadline misses at warn; window completions at
// debug) emit leveled records into it. When span tracing is armed
// (WithSpans) every record carries the active span id under the "span"
// key. Nil disables logging (the default).
func WithLogger(l *slog.Logger) Option {
	return optionFunc(func(c *config) { c.logger = l })
}

// WithSpans attaches a span recorder to the system: every Run/RunStream
// call records a tree of spans (stream_run → window → plan/partition/
// dp_row, execute → slice, plus plan_retry/replan/requeue markers) into
// the recorder's bounded lock-free ring. Export the ring with WriteOTLP,
// convert it to a Chrome trace with StreamChromeTraceFromSpans, or serve
// it live from the observability server's /spans endpoint. Nil disables
// tracing (the default) at no per-call cost beyond a context lookup.
func WithSpans(rec *SpanRecorder) Option {
	return optionFunc(func(c *config) { c.spans = rec })
}

// WithFleet assembles an n-device sharded serving fleet around the system:
// device 0 ("dev0") is the system's SoC, devices 1..n−1 cycle the mixed
// mobile presets (Kirin 990, Snapdragon 778G, Snapdragon 870). Every device
// gets its own planner, plan cache, window feed and a `device`-labeled view
// of the system's metrics registry. Run requests across the fleet with
// RunFleet; inspect it live on the observability server's /fleet endpoint.
// n ≤ 0 disables the fleet (the default).
func WithFleet(n int) Option {
	return optionFunc(func(c *config) { c.fleetSize = n })
}

// WithObjective selects the planning mode for Run, RunStream and RunFleet:
// ObjectiveMakespan (the default) plans the min-makespan schedule,
// ObjectiveFrontier enumerates the Pareto frontier over (makespan,
// throughput, energy, peak memory) and executes the point selected by the
// governing SLO class (WithSLOClass, or per-request StreamRequest.SLO).
func WithObjective(m ObjectiveMode) Option {
	return optionFunc(func(c *config) { c.stream.Objective = m })
}

// WithSLOClass sets the default SLO class for frontier planning
// (WithObjective): the class applied to offline Run calls and to stream
// requests that carry none. Requests with their own StreamRequest.SLO
// override it per window via strictest-class resolution. Unset defaults to
// SLOLatencyCritical, whose selected plans are byte-identical to makespan
// planning.
func WithSLOClass(class SLOClass) Option {
	return optionFunc(func(c *config) { c.stream.SLO = class })
}

// WithRequestTracing arms per-request distributed tracing: every stream and
// fleet request gets a stable trace ID at admission, a lifecycle timeline of
// phase events on the virtual clock (arrived → queued → window-admitted →
// planned → executing → interrupted/requeued → handed-off →
// completed/missed), and a sojourn decomposition — queue wait, retry
// backoff, interrupt loss, exec and handoff transit, summing exactly to the
// measured sojourn — plus trace-ID exemplars on the sojourn histogram
// (WithMetrics). Timelines land on StreamResult.Timelines /
// FleetResult.Timelines and in the system's flight-recorder store
// (RequestTraces), which retains the last capacity completed timelines
// (≤ 0 selects the default, 1024) and the worst-sojourn shortlist — the
// observability server's /requests endpoint. Under WithFleet, trace IDs
// survive failover: a handed-off request yields one fleet-wide timeline
// spanning every device it touched.
func WithRequestTracing(capacity int) Option {
	return optionFunc(func(c *config) {
		c.tracing = true
		c.traceCap = capacity
	})
}

// WithSLOBudget registers an error budget for one SLO class: target is the
// tolerated deadline-miss fraction (e.g. 0.01 = 99% on-time). Budgeted
// classes are monitored per completion — lifetime miss fractions, a
// windowed burn rate (how many times faster than budget the class is
// burning) and remaining budget — served by the observability server's /slo
// endpoint and SLOBudgets. Repeat the option to budget several classes.
func WithSLOBudget(class SLOClass, target float64) Option {
	return optionFunc(func(c *config) {
		if c.sloBudgets == nil {
			c.sloBudgets = make(map[string]float64)
		}
		c.sloBudgets[class.String()] = target
	})
}

// WithBeam bounds the planner's candidate sweep to the width best candidates
// under a cheap proxy pricing, then escalates until the winner is provably
// within (1+epsilon)× of the exact sweep's makespan — the anytime/beam mode
// for large windows. width ≥ the candidate count (or ≤ 0) reproduces the
// exact plan byte-identically; epsilon 0 escalates until the bound closes
// exactly or the sweep exhausts.
func WithBeam(width int, epsilon float64) Option {
	return optionFunc(func(c *config) {
		c.planner.BeamWidth = width
		c.planner.BeamEpsilon = epsilon
	})
}

// WithPlanDeadline arms a wall-clock budget on each window's candidate
// sweep: once it elapses, the sweep stops escalating and returns the best
// plan priced so far. The deadline voids both byte-identical determinism and
// the beam regret bound — it is the latency-first trade for interactive
// deployments. d ≤ 0 disarms (the default).
func WithPlanDeadline(d time.Duration) Option {
	return optionFunc(func(c *config) { c.planner.AnytimeDeadline = d })
}

// PlannerOptions is the full planner configuration (an alias of
// core.Options) for WithPlannerOptions. Most callers never need it — the
// functional options cover the common knobs.
type PlannerOptions = core.Options

// DefaultPlannerOptions returns the full Hetero²Pipe planner configuration
// — the same defaults NewSystem applies with no options.
func DefaultPlannerOptions() PlannerOptions { return core.DefaultOptions() }

// WithPlannerOptions replaces the full planner configuration — the escape
// hatch for ablations (core.NoCTOptions) and custom estimators.
func WithPlannerOptions(o PlannerOptions) Option {
	return optionFunc(func(c *config) { c.planner = o })
}
