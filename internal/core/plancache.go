package core

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
)

// Whole-plan memoization. The cost-table cache removes the measurement cost
// of repeated planning, but every PlanProfiles call still pays the full
// two-step optimisation — per-model partition DPs, the LAP mitigation
// reorder, work stealing and the tail local search across ~6 candidate
// orderings. In the stream scheduler's steady state (the same request mix
// window after window against an unchanged SoC) that work recomputes an
// identical plan every time. The plan cache memoizes whole plans behind a
// canonical window signature:
//
//	mode | SoC state key | planner options fingerprint | ordered model digests
//
// A plan is a pure function of the SoC description, its runtime
// degradation state, the options and the ordered model content, and the
// signature covers each. The state key (soc.SoC.StateKey) hashes every
// processor's offline flag, throttle factor and frequency fraction, the bus
// derate, and a generation counter only BumpEpoch advances (the escape
// hatch for in-place description changes). Because it is computed from the
// state rather than counted up per event, a SoC that throttles and then
// recovers is back at its earlier key: thermal and DVFS governors cycle
// through a few operating points, and every return to one is served from
// the cache. Degradation events therefore flush nothing — entries for
// states the SoC has left simply wait in the LRU until it comes back or
// they age out. The model sequence is kept in window order, not sorted:
// the planner's candidate orderings and the Order index mapping depend on
// the order requests arrive in, so two permutations of one multiset are
// distinct planner inputs with distinct (byte-different) plans.
//
// An entry keeps the model identities behind its digests, and a hit
// re-checks them, the same way sameModel guards the cost cache's name-based
// key, so a digest collision degrades to a miss. The state key has no such
// guard: two distinct runtime states of one SoC would have to collide in 64
// bits, which for n states the SoC ever visits happens with probability
// about n²/2⁶⁵.
//
// Entries never hold profiles. A stored plan has Schedule.Profiles cleared,
// and every hit rebinds it from the caller's current profiles —
// Schedule.Profiles[p] = profiles[Order[p]], the invariant the planner
// builds schedules by. Profiles are rebuilt whenever a degradation event
// stales a table, so an entry that kept its own would pin one generation of
// cost tables per state it was planned in. Hits are otherwise deep copies:
// plans are mutable (stream callers hand the schedule to the executor,
// experiments rewrite stage rows), so cache and caller never alias.

// planKey is the canonical window signature.
type planKey = string

// Objective-mode dimension of the signature: single-plan and frontier
// entries share the LRU but can never collide, because the mode is the
// first byte of the key.
const (
	modeSinglePlan = "s"
	modeFrontier   = "f"
)

// windowSignature builds the canonical signature for a window planned in
// the SoC state with the given key under the fingerprinted options.
// digests[i] is the content digest (model.Model.Digest) of the window's
// i-th model. mode is the objective dimension (modeSinglePlan or
// modeFrontier): a frontier and the single min-makespan plan for the same
// window are distinct cache values with distinct keys.
func windowSignature(mode string, state uint64, optsFP string, digests []uint64) planKey {
	var b strings.Builder
	var hex [16]byte
	b.Grow(len(mode) + len(optsFP) + 18 + 17*len(digests))
	b.WriteString(mode)
	b.WriteByte('|')
	b.Write(strconv.AppendUint(hex[:0], state, 16))
	b.WriteByte('|')
	b.WriteString(optsFP)
	for _, d := range digests {
		b.WriteByte('|')
		b.Write(strconv.AppendUint(hex[:0], d, 16))
	}
	return b.String()
}

// optionsFingerprint canonicalises the Options fields that influence plan
// content. Parallelism is deliberately absent (plans are byte-identical at
// every worker count; see Options.Parallelism), as are the Metrics/Logger
// handles, which observe planning without steering it.
func optionsFingerprint(o Options) string {
	est := "nil"
	if o.Estimator != nil {
		// Pointer identity: the estimator's weights are treated as immutable
		// for the planner's lifetime, like the SoC description between
		// BumpEpoch calls. Swapping in a new estimator means a new Planner
		// (or an InvalidateCache call).
		est = fmt.Sprintf("%p", o.Estimator)
	}
	// Beam fields steer which candidates get priced, and so the plan bytes.
	return fmt.Sprintf("q=%g;mit=%t;ws=%t;tail=%t;cont=%t;mem=%t;smem=%t;est=%s;bw=%d;beps=%g;dl=%s",
		o.HighQuantile, o.Mitigation, o.WorkStealing, o.TailOptimization,
		o.ExecOptions.Contention, o.ExecOptions.EnforceMemory, o.ExecOptions.SampleMemory, est,
		o.BeamWidth, o.BeamEpsilon, o.AnytimeDeadline)
}

// planEntry is one memoized value — a single plan or a whole frontier,
// exactly one of the two set, matching the key's mode byte — plus the
// ordered model identities backing its signature (the structural collision
// guard). Stored plans are unbound: Schedule.Profiles is nil.
type planEntry struct {
	key      planKey
	models   []*model.Model
	plan     *Plan
	frontier *Frontier
}

// matches reports whether the entry was planned for exactly this window.
func (e *planEntry) matches(profiles []*profile.Profile) bool {
	if len(e.models) != len(profiles) {
		return false
	}
	for i, p := range profiles {
		if !sameModel(e.models[i], p.Model()) {
			return false
		}
	}
	return true
}

// planCache is a bounded LRU of whole plans. All methods are safe for
// concurrent use.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[planKey]*list.Element
	order   *list.List // front = most recently used

	hits   atomic.Uint64
	misses atomic.Uint64
	// hitC/missC mirror the lifetime counters into the owning planner's
	// metrics registry (detached instruments when no registry is set).
	hitC  *obs.Counter
	missC *obs.Counter
}

func newPlanCache(capacity int, reg *obs.Registry) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[planKey]*list.Element),
		order:   list.New(),
		hitC:    reg.Counter("planner_plan_cache_hits_total"),
		missC:   reg.Counter("planner_plan_cache_misses_total"),
	}
}

// lookup returns the entry memoized for key when it holds the wanted
// value (a frontier, or a single plan) for the window, promoting it in LRU
// order; nil otherwise. Either way it counts one hit or one miss.
func (c *planCache) lookup(key planKey, profiles []*profile.Profile, frontier bool) *planEntry {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		if e := el.Value.(*planEntry); (e.frontier != nil) == frontier && e.matches(profiles) {
			c.order.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			c.hitC.Inc()
			return e
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	c.missC.Inc()
	return nil
}

// get returns a copy of the memoized plan for key bound to the caller's
// profiles, or nil. Entries are immutable once stored, so the copy is made
// outside the lock.
func (c *planCache) get(key planKey, profiles []*profile.Profile) *Plan {
	if e := c.lookup(key, profiles, false); e != nil {
		return copyPlan(e.plan, profiles)
	}
	return nil
}

// getFrontier is get for whole-frontier entries. Same LRU, same hit/miss
// counters — one hit means one window's planning skipped, regardless of
// mode.
func (c *planCache) getFrontier(key planKey, profiles []*profile.Profile) *Frontier {
	if e := c.lookup(key, profiles, true); e != nil {
		return copyFrontier(e.frontier, profiles)
	}
	return nil
}

// newEntry starts the entry for a window: the key and the window's model
// identities.
func newEntry(key planKey, profiles []*profile.Profile) *planEntry {
	e := &planEntry{key: key, models: make([]*model.Model, len(profiles))}
	for i, p := range profiles {
		e.models[i] = p.Model()
	}
	return e
}

// put memoizes an unbound deep copy of plan under key, evicting the
// least-recently-used entries beyond the capacity bound.
func (c *planCache) put(key planKey, profiles []*profile.Profile, plan *Plan) {
	e := newEntry(key, profiles)
	e.plan = copyPlan(plan, nil)
	c.putEntry(e)
}

// putFrontier memoizes an unbound deep copy of a whole frontier under key.
func (c *planCache) putFrontier(key planKey, profiles []*profile.Profile, f *Frontier) {
	e := newEntry(key, profiles)
	e.frontier = copyFrontier(f, nil)
	c.putEntry(e)
}

func (c *planCache) putEntry(entry *planEntry) {
	key := entry.key
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		el.Value = entry
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[key] = c.order.PushFront(entry)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).key)
	}
	c.mu.Unlock()
}

// stats returns the lifetime hit/miss counters.
func (c *planCache) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// contains reports whether key is memoized with a structural match, without
// touching the LRU order or the hit/miss counters — the read-only peek
// behind Planner.HasCachedPlan.
func (c *planCache) contains(key planKey, models []*model.Model) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	return ok && sameModels(el.Value.(*planEntry).models, models)
}

// len returns the current entry count (tests inspect the LRU bound).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// invalidate drops every entry (counters survive — lifetime semantics,
// matching costCache.invalidate).
func (c *planCache) invalidate() {
	c.mu.Lock()
	c.entries = make(map[planKey]*list.Element)
	c.order.Init()
	c.mu.Unlock()
}

// sameModels verifies the ordered structural identity behind a signature
// match.
func sameModels(a, b []*model.Model) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameModel(a[i], b[i]) {
			return false
		}
	}
	return true
}

// copyPlan clones every mutable layer of a plan — the schedule's stage rows
// (Schedule.Clone; the SoC is shared) and all index/score slices — and
// binds the copy's schedule to profiles: Schedule.Profiles[pos] is
// profiles[Order[pos]], the window's profiles in the plan's execution
// order, in a backing array of the copy's own. nil profiles leave the copy
// unbound (Schedule.Profiles nil), the form the cache stores. Cache and
// caller never alias.
func copyPlan(p *Plan, profiles []*profile.Profile) *Plan {
	out := &Plan{
		Order:               append([]int(nil), p.Order...),
		Classes:             append([]contention.Class(nil), p.Classes...),
		Intensities:         append([]float64(nil), p.Intensities...),
		HorizontalMakespans: append([]float64(nil), p.HorizontalMakespans...),
	}
	if p.Schedule != nil {
		out.Schedule = p.Schedule.Clone()
		out.Schedule.Profiles = nil
		if profiles != nil {
			out.Schedule.Profiles = make([]*profile.Profile, len(p.Order))
			for pos, orig := range p.Order {
				out.Schedule.Profiles[pos] = profiles[orig]
			}
		}
	}
	if p.Cuts != nil {
		out.Cuts = make([]pipeline.Cuts, len(p.Cuts))
		for i, c := range p.Cuts {
			out.Cuts[i] = append(pipeline.Cuts(nil), c...)
		}
	}
	return out
}

// copyFrontier is copyPlan over every point of a frontier (objectives and
// candidate indices are values).
func copyFrontier(f *Frontier, profiles []*profile.Profile) *Frontier {
	out := &Frontier{Points: make([]FrontierPoint, len(f.Points))}
	for i, p := range f.Points {
		out.Points[i] = FrontierPoint{
			Plan:      copyPlan(p.Plan, profiles),
			Objective: p.Objective,
			Candidate: p.Candidate,
		}
	}
	return out
}

// PlanCacheStats returns the planner's lifetime whole-plan cache hit/miss
// counters: one hit per window served from the cache, one miss per window
// that ran the full two-step optimisation. Both zero when the cache is
// disabled (Options.PlanCache ≤ 0).
func (pl *Planner) PlanCacheStats() (hits, misses uint64) {
	if pl.planCache == nil {
		return 0, 0
	}
	return pl.planCache.stats()
}

// windowKey returns the signature of a window of profiles in the SoC's
// current state, reading each model's digest from the cost cache.
func (pl *Planner) windowKey(mode string, profiles []*profile.Profile) planKey {
	var buf [8]uint64
	digests := buf[:0]
	for _, p := range profiles {
		digests = append(digests, pl.cache.digest(p.Model()))
	}
	return windowSignature(mode, pl.soc.StateKey(), pl.optsFP, digests)
}

// HasCachedPlan reports whether a plan for the given window of models — in
// window order, in the SoC's current runtime state, under this planner's
// options — is memoized right now. It is a pure peek: no LRU reordering, no
// hit/miss accounting, so routing layers (the fleet's plan-cache affinity
// policy) can probe candidate devices without skewing cache statistics.
// Always false when the plan cache is disabled.
func (pl *Planner) HasCachedPlan(models []*model.Model) bool {
	if pl.planCache == nil {
		return false
	}
	var digestBuf [8]uint64
	digests := digestBuf[:0]
	for _, m := range models {
		digests = append(digests, pl.cache.digest(m))
	}
	key := windowSignature(modeSinglePlan, pl.soc.StateKey(), pl.optsFP, digests)
	return pl.planCache.contains(key, models)
}
