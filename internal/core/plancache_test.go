package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

func newCachedPlanner(t *testing.T, s *soc.SoC, capacity int) *Planner {
	t.Helper()
	opts := DefaultOptions()
	opts.PlanCache = capacity
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestPlanCacheHitIsByteIdentical: replanning an identical window must be a
// cache hit, skip the DP entirely, and return a plan byte-identical both to
// the first (missed) plan and to a cache-disabled planner's plan.
func TestPlanCacheHitIsByteIdentical(t *testing.T) {
	models := mustModels(t, model.ResNet50, model.SqueezeNet, model.BERT)
	pl := newCachedPlanner(t, soc.Kirin990(), 4)

	first, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 0 || m != 1 {
		t.Fatalf("after cold plan: hits=%d misses=%d, want 0/1", h, m)
	}
	cells := pl.DPCells()
	second, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 1 || m != 1 {
		t.Fatalf("after warm plan: hits=%d misses=%d, want 1/1", h, m)
	}
	if got := pl.DPCells(); got != cells {
		t.Errorf("cache hit still evaluated DP cells: %d → %d", cells, got)
	}
	if canonicalPlan(second) != canonicalPlan(first) {
		t.Error("cached plan differs from the plan that populated it")
	}

	ref, err := NewPlanner(soc.Kirin990(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(second) != canonicalPlan(want) {
		t.Error("cached plan differs from a cache-disabled planner's plan")
	}
}

// TestPlanCacheLRUBound: the entry count never exceeds the capacity, the
// least-recently-used window is the one evicted, and a recently-touched
// window survives.
func TestPlanCacheLRUBound(t *testing.T) {
	pl := newCachedPlanner(t, soc.Kirin990(), 2)
	winA := mustModels(t, model.SqueezeNet)
	winB := mustModels(t, model.MobileNetV2)
	winC := mustModels(t, model.AlexNet)

	for _, win := range [][]*model.Model{winA, winB} {
		if _, err := pl.PlanModels(win); err != nil {
			t.Fatal(err)
		}
	}
	if n := pl.planCache.len(); n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	// Touch A so B becomes least-recently-used, then insert C.
	if _, err := pl.PlanModels(winA); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.PlanModels(winC); err != nil {
		t.Fatal(err)
	}
	if n := pl.planCache.len(); n != 2 {
		t.Fatalf("entries after eviction = %d, want 2", n)
	}
	hits0, misses0 := pl.PlanCacheStats()
	if _, err := pl.PlanModels(winA); err != nil { // survived (recently used)
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != hits0+1 || m != misses0 {
		t.Errorf("replanning the recently-used window: hits %d→%d misses %d→%d, want a pure hit",
			hits0, h, misses0, m)
	}
	if _, err := pl.PlanModels(winB); err != nil { // evicted
		t.Fatal(err)
	}
	if _, m := pl.PlanCacheStats(); m != misses0+1 {
		t.Errorf("replanning the evicted window was not a miss (misses %d→%d)", misses0, m)
	}
}

// TestPlanCacheDeepCopyOnHit: callers own their plans outright — mutating a
// returned plan (slices and schedule rows alike) must not leak into the
// cache's copy.
func TestPlanCacheDeepCopyOnHit(t *testing.T) {
	models := mustModels(t, model.ResNet50, model.GoogLeNet)
	pl := newCachedPlanner(t, soc.Kirin990(), 4)
	first, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalPlan(first)

	vandalise := func(p *Plan) {
		p.Order[0] = 999
		p.Classes[0]++
		p.Intensities[0] = -1
		p.HorizontalMakespans[0] = -1
		p.Cuts[0][0] = 999
		p.Schedule.Stages[0][0].From = 999
	}
	vandalise(first) // mutate the plan that seeded the cache

	second, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPlan(second); got != want {
		t.Fatalf("mutating the seeding plan corrupted the cache:\nwant %s\ngot %s", want, got)
	}
	vandalise(second) // mutate a hit-served plan

	third, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPlan(third); got != want {
		t.Fatalf("mutating a hit-served plan corrupted the cache:\nwant %s\ngot %s", want, got)
	}
}

// TestPlanCacheEpochInvalidation: a state-changing degradation event moves
// the SoC to a new state key, so the next identical window misses and
// replans on the degraded tables — while a no-op event leaves the state
// (and the hit stream) untouched.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	s := soc.Kirin990()
	pl := newCachedPlanner(t, s, 4)
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}

	// No-op event first: restating the online NPU changes nothing.
	affected, err := s.Apply(soc.Event{Kind: soc.EventProcessorOnline, Processor: "npu"})
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 0 {
		t.Fatalf("no-op event staled processors %v", affected)
	}
	pl.InvalidateProcessors(affected...)
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 1 || m != 1 {
		t.Fatalf("after no-op event: hits=%d misses=%d, want 1/1 (still a hit)", h, m)
	}

	// Real throttle: a new state, so a new signature.
	affected, err = s.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	pl.InvalidateProcessors(affected...)
	degraded, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 1 || m != 2 {
		t.Fatalf("after throttle: hits=%d misses=%d, want 1/2 (a miss)", h, m)
	}

	// A bus squeeze stales no cost tables but still changes plans: it must
	// change the state key and force a miss too.
	if _, err := s.Apply(soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.6}); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 1 || m != 3 {
		t.Fatalf("after bus squeeze: hits=%d misses=%d, want 1/3 (a miss)", h, m)
	}
	_ = degraded
}

// TestPlanCacheInvalidateFlush: InvalidateCache flushes the plan cache;
// InvalidateProcessors never does — with the empty set (a no-op
// degradation event) or a non-empty one, the SoC state is unchanged, so
// the window is still a hit.
func TestPlanCacheInvalidateFlush(t *testing.T) {
	pl := newCachedPlanner(t, soc.Kirin990(), 4)
	models := mustModels(t, model.MobileNetV2, model.GoogLeNet)
	warm := func() (hits, misses uint64) {
		t.Helper()
		if _, err := pl.PlanModels(models); err != nil {
			t.Fatal(err)
		}
		return pl.PlanCacheStats()
	}

	warm()                      // miss, populates
	if h, _ := warm(); h != 1 { // hit
		t.Fatalf("warm plan not a hit (hits=%d)", h)
	}

	pl.InvalidateProcessors() // empty set: must NOT flush
	if h, _ := warm(); h != 2 {
		t.Error("empty InvalidateProcessors flushed the plan cache")
	}

	pl.InvalidateProcessors(0) // non-empty, same SoC state: still a hit
	if h, m := warm(); h != 3 || m != 1 {
		t.Errorf("after InvalidateProcessors(0): hits=%d misses=%d, want 3/1 (the state is unchanged)", h, m)
	}

	pl.InvalidateCache() // full flush
	if _, m := warm(); m != 2 {
		t.Error("InvalidateCache did not flush the plan cache")
	}
	if n := pl.planCache.len(); n != 1 {
		t.Errorf("entries after flush+replan = %d, want 1", n)
	}
}

// TestPlanCacheOrderSensitivity: two permutations of one model multiset are
// distinct planner inputs (candidate orderings and the Order mapping depend
// on window order), so they must occupy distinct cache slots — never serve
// each other's plans.
func TestPlanCacheOrderSensitivity(t *testing.T) {
	pl := newCachedPlanner(t, soc.Kirin990(), 4)
	ab := mustModels(t, model.ResNet50, model.SqueezeNet)
	ba := []*model.Model{ab[1], ab[0]}

	planAB, err := pl.PlanModels(ab)
	if err != nil {
		t.Fatal(err)
	}
	planBA, err := pl.PlanModels(ba)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 0 || m != 2 {
		t.Fatalf("permuted windows: hits=%d misses=%d, want 0/2 (distinct signatures)", h, m)
	}
	// The permuted window's plan must match a fresh planner's, not the
	// other permutation's cached entry.
	ref, err := NewPlanner(soc.Kirin990(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.PlanModels(ba)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(planBA) != canonicalPlan(want) {
		t.Error("permuted window served a stale plan")
	}
	_ = planAB
}

// TestDifferentialPlanCacheMatchesUncached: over a randomized sequence of
// recurring windows interleaved with degradation events (applied in lockstep
// to a reference SoC), every plan from the cache-enabled planner must be
// byte-identical to a cache-disabled planner's plan — whether the window was
// a hit or a miss.
func TestDifferentialPlanCacheMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	names := model.Names()
	socCached := soc.Kirin990()
	socRef := soc.Kirin990()
	cached := newCachedPlanner(t, socCached, 3) // small: eviction in play
	ref, err := NewPlanner(socRef, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	rounds := 16
	if testing.Short() {
		rounds = 6
	}
	npuOffline := false
	var pool [][]*model.Model
	for r := 0; r < rounds; r++ {
		var win []*model.Model
		if len(pool) > 0 && rng.Intn(2) == 0 {
			win = pool[rng.Intn(len(pool))] // replay a window → hit candidate
		} else {
			size := 1 + rng.Intn(3)
			picked := make([]string, size)
			for i := range picked {
				picked[i] = names[rng.Intn(len(names))]
			}
			win = mustModels(t, picked...)
			pool = append(pool, win)
		}
		got, err := cached.PlanModels(win)
		if err != nil {
			t.Fatalf("round %d: cached planner: %v", r, err)
		}
		want, err := ref.PlanModels(win)
		if err != nil {
			t.Fatalf("round %d: reference planner: %v", r, err)
		}
		if canonicalPlan(got) != canonicalPlan(want) {
			t.Fatalf("round %d: cached plan diverged from uncached reference\n--- cached ---\n%s--- reference ---\n%s",
				r, canonicalPlan(got), canonicalPlan(want))
		}

		if rng.Intn(3) != 0 {
			continue
		}
		// Degrade both SoCs identically (the event mix includes deliberate
		// no-ops, e.g. re-asserting a throttle factor).
		var ev soc.Event
		switch rng.Intn(4) {
		case 0:
			ev = soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big",
				Factor: 1 + 0.5*float64(rng.Intn(3))}
		case 1:
			ev = soc.Event{Kind: soc.EventFrequencyScale, Processor: "gpu",
				Factor: 0.5 + 0.25*float64(rng.Intn(3))}
		case 2:
			ev = soc.Event{Kind: soc.EventBandwidthSqueeze,
				Factor: 0.6 + 0.2*float64(rng.Intn(3))}
		case 3:
			if npuOffline {
				ev = soc.Event{Kind: soc.EventProcessorOnline, Processor: "npu"}
			} else {
				ev = soc.Event{Kind: soc.EventProcessorOffline, Processor: "npu"}
			}
			npuOffline = !npuOffline
		}
		affC, err := socCached.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		cached.InvalidateProcessors(affC...)
		affR, err := socRef.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		ref.InvalidateProcessors(affR...)
	}
	hits, misses := cached.PlanCacheStats()
	if hits == 0 {
		t.Errorf("differential never exercised a plan-cache hit (hits=%d misses=%d)", hits, misses)
	}
}

// planSignature is the signature of a window of bare models, with each
// digest computed afresh rather than read from the cost cache — the form the
// key fuzzer drives.
func planSignature(mode string, state uint64, optsFP string, models []*model.Model) planKey {
	digests := make([]uint64, len(models))
	for i, m := range models {
		digests[i] = m.Digest()
	}
	return windowSignature(mode, state, optsFP, digests)
}

// fuzzModel synthesises a valid chain model deterministically from a seed:
// tensor continuity is enforced by construction, operator kinds stay within
// the NPU-supported set so the whole zoo of processors can take slices.
func fuzzModel(seed uint64, n int) *model.Model {
	rng := rand.New(rand.NewSource(int64(seed)))
	if n < 1 {
		n = 1
	}
	if n > 6 {
		n = 6
	}
	kinds := []model.OpKind{model.OpConv, model.OpPool, model.OpActivation, model.OpFC}
	layers := make([]model.Layer, n)
	in := int64(rng.Intn(1<<16) + 1024)
	first := in
	for i := range layers {
		out := int64(rng.Intn(1<<16) + 512)
		layers[i] = model.Layer{
			Name:            fmt.Sprintf("l%d", i),
			Kind:            kinds[rng.Intn(len(kinds))],
			FLOPs:           float64(rng.Intn(1<<22) + 1000),
			InputBytes:      in,
			OutputBytes:     out,
			WeightBytes:     int64(rng.Intn(1 << 14)),
			WorkingSetBytes: int64(rng.Intn(1 << 14)),
		}
		in = out
	}
	// The name is deliberately constant: digests must discriminate on
	// content alone, making hash collisions the only way two different
	// windows could share a signature.
	return &model.Model{Name: "fuzzmodel", Layers: layers, InputBytes: first}
}

// fuzzOptions derives a planner option permutation from a bitmask, touching
// exactly the fields the fingerprint covers.
func fuzzOptions(bits uint8) Options {
	o := DefaultOptions()
	o.Mitigation = bits&1 != 0
	o.WorkStealing = bits&2 != 0
	o.TailOptimization = bits&4 != 0
	o.ExecOptions.Contention = bits&8 != 0
	if bits&16 != 0 {
		o.HighQuantile = 0.25
	}
	return o
}

// FuzzPlanCacheKey: the canonical signature may only collide when the
// planner inputs are semantically identical. Whenever two fuzz-derived
// windows produce equal signatures, the models must be structurally equal
// and the options fingerprints byte-equal — and planning both windows (from
// fresh planners) must yield byte-identical plans. Signature determinism is
// asserted on every input.
func FuzzPlanCacheKey(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(1), uint64(2), uint8(3), uint8(3), uint8(0), uint8(0))
	f.Add(uint64(7), uint64(7), uint8(4), uint8(4), uint8(31), uint8(31))
	f.Add(uint64(9), uint64(9), uint8(2), uint8(2), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, nA, nB, bitsA, bitsB uint8) {
		winA := []*model.Model{fuzzModel(seedA, int(nA%6)+1)}
		winB := []*model.Model{fuzzModel(seedB, int(nB%6)+1)}
		for _, m := range [...]*model.Model{winA[0], winB[0]} {
			if err := m.Validate(); err != nil {
				t.Fatalf("fuzzModel produced an invalid model: %v", err)
			}
		}
		optsA, optsB := fuzzOptions(bitsA), fuzzOptions(bitsB)
		fpA, fpB := optionsFingerprint(optsA), optionsFingerprint(optsB)
		sigA := planSignature(modeSinglePlan, 0, fpA, winA)
		sigB := planSignature(modeSinglePlan, 0, fpB, winB)

		// Determinism: recomputing a signature from the same inputs must
		// reproduce it exactly.
		if again := planSignature(modeSinglePlan, 0, fpA, winA); again != sigA {
			t.Fatalf("signature not deterministic: %q vs %q", sigA, again)
		}
		// Epoch separation: the same window at a later epoch never matches.
		if bumped := planSignature(modeSinglePlan, 1, fpA, winA); bumped == sigA {
			t.Fatalf("epoch bump did not change the signature %q", sigA)
		}
		if sigA != sigB {
			return
		}
		// Equal signatures ⇒ semantically identical planner inputs.
		if fpA != fpB {
			t.Fatalf("signatures collide across option fingerprints %q vs %q", fpA, fpB)
		}
		if !sameModels(winA, winB) {
			t.Fatalf("signature %q collides across structurally different windows (digest collision)", sigA)
		}
		// Cross-check: planning both windows yields byte-identical plans.
		// Parallelism is pinned so the comparison isolates the inputs.
		optsA.Parallelism, optsB.Parallelism = 1, 1
		plA, err := NewPlanner(soc.Kirin990(), optsA)
		if err != nil {
			t.Fatal(err)
		}
		plB, err := NewPlanner(soc.Kirin990(), optsB)
		if err != nil {
			t.Fatal(err)
		}
		planA, err := plA.PlanModels(winA)
		if err != nil {
			t.Fatalf("planning window A: %v", err)
		}
		planB, err := plB.PlanModels(winB)
		if err != nil {
			t.Fatalf("planning window B: %v", err)
		}
		if canonicalPlan(planA) != canonicalPlan(planB) {
			t.Fatalf("equal signatures, different plans:\n--- A ---\n%s--- B ---\n%s",
				canonicalPlan(planA), canonicalPlan(planB))
		}
	})
}

// TestPlanCacheHasCachedPlan: the affinity router's read-only peek must
// report membership without counting as cache traffic, without promoting the
// entry in LRU order, and must go stale with the SoC state like any other
// signature.
func TestPlanCacheHasCachedPlan(t *testing.T) {
	s := soc.Kirin990()
	pl := newCachedPlanner(t, s, 2)
	winA := mustModels(t, model.SqueezeNet)
	winB := mustModels(t, model.MobileNetV2)
	winC := mustModels(t, model.AlexNet)

	if pl.HasCachedPlan(winA) {
		t.Fatal("empty cache claims a plan for window A")
	}
	for _, win := range [][]*model.Model{winA, winB} {
		if _, err := pl.PlanModels(win); err != nil {
			t.Fatal(err)
		}
	}
	hits0, misses0 := pl.PlanCacheStats()
	if !pl.HasCachedPlan(winA) || !pl.HasCachedPlan(winB) {
		t.Fatal("cached windows not reported")
	}
	if pl.HasCachedPlan(winC) {
		t.Fatal("never-planned window reported cached")
	}
	if h, m := pl.PlanCacheStats(); h != hits0 || m != misses0 {
		t.Errorf("peek counted as cache traffic: hits %d→%d misses %d→%d", hits0, h, misses0, m)
	}

	// The peek must not promote: A is the LRU entry; peeking it and then
	// inserting C must still evict A, not B.
	if !pl.HasCachedPlan(winA) {
		t.Fatal("window A vanished")
	}
	if _, err := pl.PlanModels(winC); err != nil {
		t.Fatal(err)
	}
	if pl.HasCachedPlan(winA) {
		t.Error("peek promoted window A in LRU order (B should have survived)")
	}
	if !pl.HasCachedPlan(winB) || !pl.HasCachedPlan(winC) {
		t.Error("expected windows B and C to survive the eviction")
	}

	// A state change retires every signature.
	if _, err := s.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 2}); err != nil {
		t.Fatal(err)
	}
	if pl.HasCachedPlan(winB) || pl.HasCachedPlan(winC) {
		t.Error("plans survive a degradation state change through the peek")
	}

	// Cache disabled: always false, never a panic.
	off := newCachedPlanner(t, soc.Kirin990(), 0)
	if off.HasCachedPlan(winA) {
		t.Error("cache-disabled planner claims a cached plan")
	}
}
