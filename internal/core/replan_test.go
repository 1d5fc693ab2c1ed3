package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// newReplanPlanner builds a default-options planner on s.
func newReplanPlanner(t testing.TB, s *soc.SoC) *Planner {
	t.Helper()
	pl, err := NewPlanner(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestDifferentialIncrementalReplan fuzzes degradation event sequences
// against one long-lived planner and, at every step, a freshly built planner
// on an identically-degraded twin SoC — whose cold memo is a from-scratch
// fill — and requires the plans to stay byte-identical after every event.
// This is the partition memo's core soundness claim: resuming the DP from
// memoized prefix rows is invisible in the output, window after window,
// event after event.
func TestDifferentialIncrementalReplan(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	windows := [][]string{
		{model.YOLOv4, model.SqueezeNet, model.BERT},
		{model.ResNet50, model.MobileNetV2, model.GoogLeNet, model.SqueezeNet},
		{model.ViT, model.AlexNet},
	}
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for wi, names := range windows {
		models := mustModels(t, names...)
		sIncr, sTwin := soc.Kirin990(), soc.Kirin990()
		plIncr := newReplanPlanner(t, sIncr)

		comparePlan := func(step string) {
			t.Helper()
			pi, errI := plIncr.PlanModels(models)
			pf, errF := newReplanPlanner(t, sTwin).PlanModels(models)
			if (errI == nil) != (errF == nil) {
				t.Fatalf("window %d %s: incremental err %v vs fresh err %v", wi, step, errI, errF)
			}
			if errI != nil {
				if !errors.Is(errI, ErrInfeasiblePartition) {
					t.Fatalf("window %d %s: %v", wi, step, errI)
				}
				return
			}
			if got, want := canonicalPlan(pi), canonicalPlan(pf); got != want {
				t.Fatalf("window %d %s: incremental plan differs from a fresh planner's:\n--- incremental ---\n%s--- fresh ---\n%s",
					wi, step, got, want)
			}
		}
		comparePlan("initial")
		// Replanning the same window at the same epoch must fully reuse.
		before := plIncr.IncrementalReuse()
		comparePlan("repeat")
		if plIncr.IncrementalReuse() <= before {
			t.Fatalf("window %d: same-epoch replan did not reuse the partition memo", wi)
		}

		offline := map[string]bool{}
		for round := 0; round < rounds; round++ {
			ev := randomEvent(rng, sIncr, offline)
			affI, err := sIncr.Apply(ev)
			if err != nil {
				t.Fatal(err)
			}
			affF, err := sTwin.Apply(ev)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(affI) != fmt.Sprint(affF) {
				t.Fatalf("window %d round %d: affected sets diverged: %v vs %v", wi, round, affI, affF)
			}
			plIncr.InvalidateProcessors(affI...)
			comparePlan(fmt.Sprintf("round %d after %s", round, ev))
		}
		if plIncr.IncrementalReuse() == 0 {
			t.Errorf("window %d: incremental planner never reused the memo", wi)
		}
	}
}

// randomEvent draws one state-changing degradation event, keeping at least
// two processors online so windows stay (mostly) feasible.
func randomEvent(rng *rand.Rand, s *soc.SoC, offline map[string]bool) soc.Event {
	for {
		p := s.Processors[rng.Intn(len(s.Processors))].ID
		switch rng.Intn(5) {
		case 0:
			return soc.Event{Kind: soc.EventThermalThrottle, Processor: p, Factor: 1 + rng.Float64()*2}
		case 1:
			return soc.Event{Kind: soc.EventFrequencyScale, Processor: p, Factor: 0.4 + rng.Float64()*0.6}
		case 2:
			if len(offline) >= len(s.Processors)-2 || offline[p] {
				continue
			}
			offline[p] = true
			return soc.Event{Kind: soc.EventProcessorOffline, Processor: p}
		case 3:
			if !offline[p] {
				continue
			}
			delete(offline, p)
			return soc.Event{Kind: soc.EventProcessorOnline, Processor: p}
		default:
			return soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.3 + rng.Float64()*0.7}
		}
	}
}

// TestIncrementalReplanSameEpochFullReuse pins the zero-work fast path: a
// second plan of the same window at the same epoch runs zero DP cells.
func TestIncrementalReplanSameEpochFullReuse(t *testing.T) {
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s)
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	cells := pl.DPCells()
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	if delta := pl.DPCells() - cells; delta != 0 {
		t.Errorf("same-epoch replan evaluated %d DP cells, want 0", delta)
	}
	if pl.IncrementalReuse() == 0 {
		t.Error("IncrementalReuse counter not incremented")
	}
}

// TestIncrementalReplanBusOnlyFullReuse pins the bus-only shortcut: a
// bandwidth squeeze bumps the epoch but stales no solo table, so the whole
// partition is reused with zero DP cells.
func TestIncrementalReplanBusOnlyFullReuse(t *testing.T) {
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s)
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	affected, err := s.Apply(soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pl.InvalidateProcessors(affected...)
	cells := pl.DPCells()
	plan, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if delta := pl.DPCells() - cells; delta != 0 {
		t.Errorf("bus-only replan evaluated %d DP cells, want 0", delta)
	}
	// The reused partition must still price bit-identically to a fresh
	// planner on an identically-squeezed SoC.
	s2 := soc.Kirin990()
	if _, err := s2.Apply(soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	fresh, err := newReplanPlanner(t, s2).PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(plan) != canonicalPlan(fresh) {
		t.Error("bus-only reused plan differs from a fresh planner's")
	}
}

// TestIncrementalReplanResumesMidTable degrades one late-stage processor and
// requires the replan to refill strictly fewer DP cells than the first full
// fill — the prefix rows below the affected stage were reused.
func TestIncrementalReplanResumesMidTable(t *testing.T) {
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s)
	models := mustModels(t, model.ResNet50)
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	fullCells := pl.DPCells()
	if fullCells == 0 {
		t.Fatal("first plan ran no DP cells")
	}
	// Throttle the last processor in capability order: every row below its
	// stage survives.
	last := s.Processors[len(s.Processors)-1].ID
	affected, err := s.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: last, Factor: 1.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 {
		t.Fatalf("affected = %v, want one processor", affected)
	}
	pl.InvalidateProcessors(affected...)
	plan, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	resumedCells := pl.DPCells() - fullCells
	if resumedCells == 0 || resumedCells >= fullCells {
		t.Errorf("resumed replan ran %d DP cells, want 0 < cells < %d (prefix reuse)", resumedCells, fullCells)
	}
	// Byte-identical to a fresh planner on an identically-degraded SoC.
	s2 := soc.Kirin990()
	if _, err := s2.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: last, Factor: 1.7}); err != nil {
		t.Fatal(err)
	}
	fresh, err := newReplanPlanner(t, s2).PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(plan) != canonicalPlan(fresh) {
		t.Error("resumed plan differs from a from-scratch planner's")
	}
}

// TestIncrementalReplanSurvivesBumpEpoch pins the documented reset: after a
// manual BumpEpoch plus InvalidateCache the memo is gone, so the replan
// refills — never serves stale rows.
func TestIncrementalReplanSurvivesBumpEpoch(t *testing.T) {
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s)
	models := mustModels(t, model.SqueezeNet)
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	s.BumpEpoch()
	pl.InvalidateCache()
	cells := pl.DPCells()
	plan, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if pl.DPCells() == cells {
		t.Error("plan after BumpEpoch+InvalidateCache reused the dropped memo")
	}
	fresh, err := newReplanPlanner(t, soc.Kirin990()).PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(plan) != canonicalPlan(fresh) {
		t.Error("post-bump plan differs from a fresh planner's")
	}
}

// TestIncrementalReplanResumesAfterLongHistory applies 200 state-changing
// throttles to the last processor between two plans. Only that processor's
// table changed, so however long the event history, the replan resumes at
// its stage and refills fewer DP cells than the first fill.
func TestIncrementalReplanResumesAfterLongHistory(t *testing.T) {
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s)
	models := mustModels(t, model.ResNet50)
	if _, err := pl.PlanModels(models); err != nil {
		t.Fatal(err)
	}
	fullCells := pl.DPCells()
	last := s.Processors[len(s.Processors)-1].ID
	for i := 0; i < 200; i++ {
		affected, err := s.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: last, Factor: 1.5 + float64(i%2)/2})
		if err != nil {
			t.Fatal(err)
		}
		if len(affected) != 1 {
			t.Fatalf("throttle %d: affected = %v, want one processor", i, affected)
		}
		pl.InvalidateProcessors(affected...)
	}
	plan, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if resumed := pl.DPCells() - fullCells; resumed == 0 || resumed >= fullCells {
		t.Errorf("replan after 200 events ran %d DP cells, want 0 < cells < %d (prefix reuse)", resumed, fullCells)
	}
	s2 := soc.Kirin990()
	if _, err := s2.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: last, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	fresh, err := newReplanPlanner(t, s2).PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(plan) != canonicalPlan(fresh) {
		t.Error("resumed plan differs from a fresh planner's")
	}
}

// TestIncrementalReplanGenerationGuard edits the SoC's copy parameters in
// place and announces it with BumpEpoch alone, without InvalidateCache. The
// cost tables survive untouched — Profile.SliceTime reads the copy terms
// live — so only the generation guard stops the memo from serving rows
// priced under the old copy costs: the replan must match a fresh planner on
// an identically edited SoC.
func TestIncrementalReplanGenerationGuard(t *testing.T) {
	edit := func(s *soc.SoC) {
		s.CopyBandwidthGBps /= 8
		s.CopyLatency += 2 * time.Millisecond
	}
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s)
	models := mustModels(t, model.YOLOv4, model.BERT, model.ResNet50)
	before, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	edit(s)
	s.BumpEpoch()
	plan, err := pl.PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	s2 := soc.Kirin990()
	edit(s2)
	fresh, err := newReplanPlanner(t, s2).PlanModels(models)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fresh.HorizontalMakespans) == fmt.Sprint(before.HorizontalMakespans) {
		t.Fatal("copy-parameter edit left the DP results unchanged; the test cannot tell stale rows apart")
	}
	if got, want := canonicalPlan(plan), canonicalPlan(fresh); got != want {
		t.Errorf("replan after BumpEpoch differs from a fresh planner's:\n--- replan ---\n%s--- fresh ---\n%s", got, want)
	}
}
