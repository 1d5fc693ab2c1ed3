package core

import (
	"sync"
	"sync/atomic"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Cost-table memoization. Building a profile.Profile is the planner's
// measurement phase — O(nK) roofline layer-cost evaluations per model — and
// it is pure: the tables depend only on the (SoC, model) pair. The planner
// therefore computes each model's tables once and shares the read-only
// Profile across worker goroutines, across candidate orderings, and across
// internal/stream planning windows. Batched requests participate naturally:
// model.Batched mints a distinct name ("X×4"), so every batch size gets its
// own entry.
//
// Entries are held at (model, processor) granularity so degradation events
// invalidate partially: a thermal throttle or offline transition on one
// processor stales only that processor's table in every entry, and the next
// lookup re-measures the stale slot while sharing the other K−1 tables
// (profile.FromTables). The whole-profile view is cached alongside so a
// fully warm lookup still returns one shared immutable Profile instance.
//
// Lifecycle: the cache belongs to one Planner and is keyed by the SoC the
// entries were measured on; if the planner's SoC description is swapped the
// cache detects the mismatch and drops every entry (the invalidation rule —
// stale tables would silently misprice every slice). InvalidateCache forces
// the same reset after an in-place SoC mutation, which pointer identity
// cannot see; InvalidateProcessors is the partial form degradation events
// use.

// cacheEntry holds one model's memoized state: the per-processor tables
// (nil slots were invalidated and need re-measurement) and, when every slot
// is present, the assembled Profile shared with every holder.
type cacheEntry struct {
	// model is the structural identity the tables were measured for — the
	// collision guard behind the name-based key.
	model  *model.Model
	tables []*profile.Table
	// assembled is the whole-profile view; nil whenever any table slot is.
	assembled *profile.Profile
	// digest is the model's content digest (model.Model.Digest), computed
	// when the model is first measured and carried into every re-assembled
	// entry, so plan signatures never re-hash a cached model's layers.
	digest uint64
}

// costCache memoizes per-(model, processor, batch) cost tables.
type costCache struct {
	mu      sync.RWMutex
	soc     *soc.SoC
	entries map[modelKey]*cacheEntry
	hits    atomic.Uint64
	misses  atomic.Uint64
	// hitC/missC mirror the lifetime counters into the owning planner's
	// metrics registry (detached instruments when no registry is set).
	hitC  *obs.Counter
	missC *obs.Counter
}

func newCostCache(s *soc.SoC, reg *obs.Registry) *costCache {
	return &costCache{
		soc:     s,
		entries: make(map[modelKey]*cacheEntry),
		hitC:    reg.Counter("planner_cache_hits_total"),
		missC:   reg.Counter("planner_cache_misses_total"),
	}
}

// modelKey identifies a model cheaply, and without allocating. Name alone
// is not trusted — two distinct models may share a name — so lookups
// verify structural equality before counting a hit.
type modelKey struct {
	name   string
	layers int
}

func cacheKey(m *model.Model) modelKey {
	return modelKey{m.Name, m.NumLayers()}
}

// sameModel reports whether two models are structurally identical — the
// collision guard behind the name-based key. O(n) field compares, orders of
// magnitude cheaper than re-measuring the tables.
func sameModel(a, b *model.Model) bool {
	if a == b {
		return true
	}
	if a.Name != b.Name || a.InputBytes != b.InputBytes || len(a.Layers) != len(b.Layers) {
		return false
	}
	for i := range a.Layers {
		if a.Layers[i] != b.Layers[i] {
			return false
		}
	}
	return true
}

// profile returns the cached tables for m on s, measuring stale or missing
// slots on first use. Safe for concurrent use; the returned Profile is
// shared and read-only.
//
// Counter semantics: a lookup counts one hit when it reuses at least one
// cached table and one miss when it measures at least one, so a fully warm
// lookup is one hit, a cold one is one miss, and a partially invalidated
// one is both — the hit records exactly the satellite fact that the
// unaffected (model, processor) tables survived the event.
func (c *costCache) profile(s *soc.SoC, m *model.Model) (*profile.Profile, error) {
	key := cacheKey(m)
	c.mu.RLock()
	var reuse []*profile.Table
	var digest uint64
	if c.soc == s {
		if e, ok := c.entries[key]; ok && sameModel(e.model, m) {
			if e.assembled != nil {
				c.mu.RUnlock()
				c.hits.Add(1)
				c.hitC.Inc()
				return e.assembled, nil
			}
			reuse = append([]*profile.Table(nil), e.tables...)
			digest = e.digest
		}
	}
	c.mu.RUnlock()
	if reuse == nil {
		digest = m.Digest()
	}

	reused := 0
	for _, t := range reuse {
		if t != nil {
			reused++
		}
	}
	if reused > 0 {
		c.hits.Add(1)
		c.hitC.Inc()
	}
	c.misses.Add(1)
	c.missC.Inc()
	p, err := profile.FromTables(s, m, reuse)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.soc != s {
		// SoC changed since the cache was built: every entry is stale.
		c.soc = s
		c.entries = make(map[modelKey]*cacheEntry)
	}
	if prior, ok := c.entries[key]; ok && sameModel(prior.model, m) && prior.assembled != nil {
		// A concurrent worker assembled the same model first; keep its entry
		// so every holder shares one Profile.
		c.mu.Unlock()
		return prior.assembled, nil
	}
	tables := make([]*profile.Table, p.NumProcessors())
	for k := range tables {
		tables[k] = p.Table(k)
	}
	c.entries[key] = &cacheEntry{model: m, tables: tables, assembled: p, digest: digest}
	c.mu.Unlock()
	return p, nil
}

// digest returns m's content digest, reusing the one memoized on m's entry
// when m is structurally that entry's model (always, for the model of a
// profile this cache assembled). Entries are never mutated in the fields
// read here, so they are read outside the lock.
func (c *costCache) digest(m *model.Model) uint64 {
	c.mu.RLock()
	e, ok := c.entries[cacheKey(m)]
	c.mu.RUnlock()
	if ok && sameModel(e.model, m) {
		return e.digest
	}
	return m.Digest()
}

// stats returns the lifetime hit/miss counters.
func (c *costCache) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// invalidate drops every entry (counters survive — they describe the
// planner's lifetime, not one cache generation).
func (c *costCache) invalidate() {
	c.mu.Lock()
	c.entries = make(map[modelKey]*cacheEntry)
	c.mu.Unlock()
}

// invalidateProcessors drops only the named processors' tables from every
// entry — the partial invalidation a degradation event triggers. Tables of
// unaffected (model, processor) pairs stay cached and keep producing hits.
func (c *costCache) invalidateProcessors(procs []int) {
	if len(procs) == 0 {
		return
	}
	c.mu.Lock()
	for _, e := range c.entries {
		dropped := false
		for _, k := range procs {
			if k >= 0 && k < len(e.tables) && e.tables[k] != nil {
				e.tables[k] = nil
				dropped = true
			}
		}
		if dropped {
			e.assembled = nil
		}
	}
	c.mu.Unlock()
}

// Profile returns the planner's memoized cost tables for m, measuring them
// on first use. Callers may hold the result across PlanModels calls; it is
// immutable.
func (pl *Planner) Profile(m *model.Model) (*profile.Profile, error) {
	return pl.cache.profile(pl.soc, m)
}

// CacheStats returns the planner's lifetime cost-cache hit/miss counters: a
// lookup counts a hit when it reuses at least one cached (model, processor)
// table and a miss when it measures at least one, so a warm lookup is one
// hit, a cold one is one miss, and a lookup after a partial invalidation is
// both.
func (pl *Planner) CacheStats() (hits, misses uint64) {
	return pl.cache.stats()
}

// InvalidateCache drops every memoized cost table and every memoized whole
// plan. Call it after mutating the SoC description in place (frequency
// scaling, thermal capping experiments); the next plan re-measures every
// model. Pair it with soc.SoC.BumpEpoch so plan signatures computed after
// the mutation cannot alias pre-mutation ones (the bump advances the
// generation the SoC state key covers).
func (pl *Planner) InvalidateCache() {
	pl.cache.invalidate()
	if pl.planCache != nil {
		pl.planCache.invalidate()
	}
	// The partition memo's rows were computed against the dropped tables,
	// which its identity guard would refuse anyway; reclaim the memory now.
	pl.partMemo.invalidate()
}

// InvalidateProcessors drops only the named processors' memoized tables —
// the partial invalidation matching a degradation event's affected set
// (soc.SoC.Apply returns it). Unaffected (model, processor) tables stay
// cached; the next lookup re-measures the stale slots and shares the rest.
// The whole-plan cache is left alone: its entries are keyed on the SoC's
// runtime state (soc.SoC.StateKey), so the event already moved lookups to
// the new state's keys, and the old state's plans serve again if the SoC
// returns to it.
func (pl *Planner) InvalidateProcessors(procs ...int) {
	pl.cache.invalidateProcessors(procs)
	pl.partMemo.dropTables(procs)
}

// SoC returns the SoC the planner plans for — the object degradation
// events mutate in place (followed by InvalidateProcessors on the affected
// set).
func (pl *Planner) SoC() *soc.SoC { return pl.soc }
