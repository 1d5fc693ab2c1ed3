package core

import (
	"reflect"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// twinPlanners returns a plan-cached planner and an uncached reference, each
// over its own fresh Kirin990, plus apply, which drives one degradation
// event through both the way the stream scheduler does: Apply, then
// InvalidateProcessors on the affected set.
func twinPlanners(t *testing.T, capacity int) (cached, ref *Planner, apply func(soc.Event)) {
	t.Helper()
	cached = newCachedPlanner(t, soc.Kirin990(), capacity)
	ref = newCachedPlanner(t, soc.Kirin990(), 0)
	apply = func(ev soc.Event) {
		t.Helper()
		for _, pl := range []*Planner{cached, ref} {
			affected, err := pl.SoC().Apply(ev)
			if err != nil {
				t.Fatal(err)
			}
			pl.InvalidateProcessors(affected...)
		}
	}
	return cached, ref, apply
}

// assertBound checks that plan's schedule runs on the planner's current
// profiles: Schedule.Profiles[pos] is the cost cache's profile for the
// window model at Order[pos].
func assertBound(t *testing.T, pl *Planner, plan *Plan, models []*model.Model) {
	t.Helper()
	if len(plan.Schedule.Profiles) != len(plan.Order) {
		t.Fatalf("schedule has %d profiles for %d requests", len(plan.Schedule.Profiles), len(plan.Order))
	}
	for pos, orig := range plan.Order {
		want, err := pl.Profile(models[orig])
		if err != nil {
			t.Fatal(err)
		}
		if plan.Schedule.Profiles[pos] != want {
			t.Errorf("position %d (%s) is bound to a profile other than the planner's current one",
				pos, models[orig].Name)
		}
	}
}

var (
	throttleBig = soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1.5}
	restoreBig  = soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1}
	squeezeBus  = soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.6}
	restoreBus  = soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 1}
)

// TestPlanCacheStateRoundTrip: the cache is keyed on the SoC's runtime
// state, not on the epoch, so when a throttle and a bus squeeze are undone
// the SoC is back at states it has been in, and the window is a hit in each
// — byte-identical to an uncached planner's plan in the same state, and
// bound to the profiles the cost cache rebuilt after the events rather than
// to the ones the entry was planned with.
func TestPlanCacheStateRoundTrip(t *testing.T) {
	cached, ref, apply := twinPlanners(t, 8)
	models := mustModels(t, model.ResNet50, model.SqueezeNet, model.BERT)
	check := func(label string, wantHits, wantMisses uint64) *Plan {
		t.Helper()
		got, err := cached.PlanModels(models)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.PlanModels(models)
		if err != nil {
			t.Fatal(err)
		}
		if canonicalPlan(got) != canonicalPlan(want) {
			t.Errorf("%s: cached plan differs from the uncached planner's\n--- cached ---\n%s--- uncached ---\n%s",
				label, canonicalPlan(got), canonicalPlan(want))
		}
		if h, m := cached.PlanCacheStats(); h != wantHits || m != wantMisses {
			t.Errorf("%s: hits=%d misses=%d, want %d/%d", label, h, m, wantHits, wantMisses)
		}
		assertBound(t, cached, got, models)
		return got
	}

	nominal := check("nominal", 0, 1)
	apply(throttleBig)
	check("throttled", 0, 2)
	apply(squeezeBus)
	check("throttled+squeezed", 0, 3)
	apply(restoreBus)
	check("throttled again", 1, 3)
	apply(restoreBig)
	if !cached.HasCachedPlan(models) {
		t.Error("HasCachedPlan misses the restored nominal state")
	}
	restored := check("restored", 2, 3)

	// The cpu-big tables were re-measured twice since the nominal plan, so
	// a hit that kept the entry's profiles would still point at the old
	// ones.
	rebound := false
	for pos := range restored.Schedule.Profiles {
		if restored.Schedule.Profiles[pos] != nominal.Schedule.Profiles[pos] {
			rebound = true
		}
	}
	if !rebound {
		t.Error("restored hit shares every profile with the first plan; expected the rebuilt profiles")
	}
}

// TestPlanCacheBumpEpochRetiresState: BumpEpoch is the escape hatch for an
// in-place change to the SoC description, which the derating fields cannot
// see, so it must retire every key although no Degrade field changed.
func TestPlanCacheBumpEpochRetiresState(t *testing.T) {
	s := soc.Kirin990()
	pl := newCachedPlanner(t, s, 4)
	models := mustModels(t, model.MobileNetV2, model.GoogLeNet)
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	degrade := make([]soc.Degradation, len(s.Processors))
	for i := range s.Processors {
		degrade[i] = s.Processors[i].Degrade
	}
	s.BumpEpoch()
	for i := range s.Processors {
		if s.Processors[i].Degrade != degrade[i] {
			t.Fatalf("BumpEpoch changed processor %d's degradation", i)
		}
	}
	if pl.HasCachedPlan(models) {
		t.Error("plan still reachable through HasCachedPlan after BumpEpoch")
	}
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 0 || m != 2 {
		t.Errorf("after BumpEpoch: hits=%d misses=%d, want 0/2", h, m)
	}
}

// TestPlanCacheDirectDegradeWrite: the state key is read from the fields,
// so a Degrade write that bypasses Apply (and so the epoch) still misses,
// and writing the nominal value back is a hit again.
func TestPlanCacheDirectDegradeWrite(t *testing.T) {
	cached, ref, _ := twinPlanners(t, 4)
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	write := func(freq float64) {
		for _, pl := range []*Planner{cached, ref} {
			pl.SoC().Processor("gpu").Degrade.FreqFraction = freq
			// A direct write stales the gpu tables; invalidating them is the
			// writer's job, as for any mutation that bypasses Apply.
			for k, p := range pl.SoC().Processors {
				if p.ID == "gpu" {
					pl.InvalidateProcessors(k)
				}
			}
		}
	}
	plan := func(label string, wantHits, wantMisses uint64) {
		t.Helper()
		got, err := cached.PlanModels(models)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.PlanModels(models)
		if err != nil {
			t.Fatal(err)
		}
		if canonicalPlan(got) != canonicalPlan(want) {
			t.Errorf("%s: cached plan differs from the uncached planner's", label)
		}
		if h, m := cached.PlanCacheStats(); h != wantHits || m != wantMisses {
			t.Errorf("%s: hits=%d misses=%d, want %d/%d", label, h, m, wantHits, wantMisses)
		}
	}

	plan("nominal", 0, 1)
	epoch := cached.SoC().Epoch()
	write(0.5)
	if cached.SoC().Epoch() != epoch {
		t.Fatal("a direct Degrade write moved the epoch")
	}
	plan("written", 0, 2)
	write(0)
	plan("written back", 1, 2)
}

// TestPlanCacheFrontierStateRoundTrip is the state round trip in frontier
// mode: every point of a restored-state hit matches the uncached frontier
// (plan, objective and candidate) and is bound to the current profiles.
func TestPlanCacheFrontierStateRoundTrip(t *testing.T) {
	cached, ref, apply := twinPlanners(t, 8)
	models := mustModels(t, model.YOLOv4, model.SqueezeNet)
	check := func(label string, wantHits, wantMisses uint64) {
		t.Helper()
		got, err := cached.PlanFrontierModels(models)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.PlanFrontierModels(models)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != want.Size() {
			t.Fatalf("%s: frontier size %d, uncached %d", label, got.Size(), want.Size())
		}
		for i := range want.Points {
			g, w := got.Points[i], want.Points[i]
			if canonicalPlan(g.Plan) != canonicalPlan(w.Plan) || g.Objective != w.Objective || g.Candidate != w.Candidate {
				t.Errorf("%s: point %d differs from the uncached frontier", label, i)
			}
			assertBound(t, cached, g.Plan, models)
		}
		if h, m := cached.PlanCacheStats(); h != wantHits || m != wantMisses {
			t.Errorf("%s: hits=%d misses=%d, want %d/%d", label, h, m, wantHits, wantMisses)
		}
	}

	check("nominal", 0, 1)
	apply(soc.Event{Kind: soc.EventFrequencyScale, Processor: "gpu", Factor: 0.5})
	check("scaled", 0, 2)
	apply(soc.Event{Kind: soc.EventFrequencyScale, Processor: "gpu", Factor: 1})
	check("restored", 1, 2)
}

// TestPlanCacheEntriesHoldNoProfiles: cached plans must not pin cost
// tables. Every event rebuilds the affected profiles, so an entry that kept
// its own would hold one generation of them per state it was planned in.
// The test walks everything reachable from every entry — single plans and
// frontiers, planned across a throttle/restore cycle — and fails on any
// profile.Profile.
func TestPlanCacheEntriesHoldNoProfiles(t *testing.T) {
	cached, _, apply := twinPlanners(t, 32)
	windows := [][]*model.Model{
		mustModels(t, model.ResNet50, model.SqueezeNet),
		mustModels(t, model.BERT),
		mustModels(t, model.YOLOv4, model.MobileNetV2, model.GoogLeNet),
	}
	planAll := func() {
		for _, win := range windows {
			if _, err := cached.PlanModels(win); err != nil {
				t.Fatal(err)
			}
			if _, err := cached.PlanFrontierModels(win); err != nil {
				t.Fatal(err)
			}
		}
	}
	planAll()
	apply(throttleBig)
	planAll()
	apply(restoreBig)
	planAll()
	if n := cached.planCache.len(); n != 4*len(windows) {
		t.Fatalf("cache holds %d entries, want %d (plan and frontier per window, two states)", n, 4*len(windows))
	}

	profType := reflect.TypeOf(profile.Profile{})
	seen := make(map[uintptr]bool)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type().Elem() == profType {
				t.Errorf("cache entry holds a *profile.Profile at %s", path)
				return
			}
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"[]")
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), path+"[key]")
			}
		}
	}
	cached.planCache.mu.Lock()
	defer cached.planCache.mu.Unlock()
	for el := cached.planCache.order.Front(); el != nil; el = el.Next() {
		walk(reflect.ValueOf(el.Value), "entry")
	}
}
