package core

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Plan golden: serialized plans and their executed objective vectors for a
// fixed set of seeded random zoo windows (duplicate models included), in
// single-plan and frontier mode, each with the exact sweep and with a beam,
// followed by every candidate ordering's objective vector from the sweep.
// Any change to the planner's search — memoization, deduplication, parallel
// merge order — must reproduce the file byte for byte. Regenerate only for
// an intended behaviour change with
//
//	go test ./internal/core -run TestPlanGolden -update-plan-golden
var updatePlanGolden = flag.Bool("update-plan-golden", false, "rewrite testdata/plan_golden.txt from the current planner")

const planGoldenWindows = 50

// planGoldenWindow draws window w: a preset, a parallelism and 1–5 zoo
// models picked with replacement (every fifth window repeats its first
// model so duplicates are always covered).
func planGoldenWindow(w int, names []string) (*soc.SoC, int, []string) {
	rng := rand.New(rand.NewSource(int64(w) + 1))
	presets := soc.Presets()
	s := presets[rng.Intn(len(presets))]
	par := 1 + rng.Intn(3)
	m := 1 + rng.Intn(5)
	picked := make([]string, m)
	for i := range picked {
		picked[i] = names[rng.Intn(len(names))]
	}
	if w%5 == 0 && m > 1 {
		picked[m-1] = picked[0]
	}
	return s, par, picked
}

func formatObjective(o Objective) string {
	return fmt.Sprintf("makespan=%d throughput=%x energy=%x peakmem=%d",
		int64(o.Makespan), o.Throughput, o.EnergyJoules, o.PeakMemoryBytes)
}

// planGolden renders every window under every mode as one text document.
func planGolden(t *testing.T) string {
	t.Helper()
	names := model.Names()
	sort.Strings(names)
	configs := []struct {
		label    string
		frontier bool
		beam     int
	}{
		{"plan/exact", false, 0},
		{"plan/beam2", false, 2},
		{"frontier/exact", true, 0},
		{"frontier/beam2", true, 2},
	}
	var b strings.Builder
	for w := 0; w < planGoldenWindows; w++ {
		s, par, picked := planGoldenWindow(w, names)
		for _, cfg := range configs {
			opts := DefaultOptions()
			opts.Parallelism = par
			opts.BeamWidth = cfg.beam
			opts.BeamEpsilon = 0.05
			pl, err := NewPlanner(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			profiles := make([]*profile.Profile, len(picked))
			for i, n := range picked {
				p, err := pl.Profile(model.MustByName(n))
				if err != nil {
					t.Fatal(err)
				}
				profiles[i] = p
			}
			fmt.Fprintf(&b, "== window %d soc=%s par=%d models=%v mode=%s\n", w, s.Name, par, picked, cfg.label)
			if cfg.frontier {
				plans, objs, err := pl.planCandidates(context.Background(), profiles)
				if err != nil {
					fmt.Fprintf(&b, "candidates error: %v\n", err)
				}
				for ci, p := range plans {
					if p == nil {
						fmt.Fprintf(&b, "-- sweep %d pruned\n", ci)
						continue
					}
					fmt.Fprintf(&b, "-- sweep %d order=%v %s\n", ci, p.Order, formatObjective(objs[ci]))
				}
				f, err := pl.PlanFrontierProfiles(profiles)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
					continue
				}
				for _, pt := range f.Points {
					fmt.Fprintf(&b, "-- candidate %d %s\n%s", pt.Candidate, formatObjective(pt.Objective), canonicalPlan(pt.Plan))
				}
				continue
			}
			plan, err := pl.PlanProfiles(profiles)
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				continue
			}
			res, err := pipeline.Execute(plan.Schedule, opts.ExecOptions)
			if err != nil {
				t.Fatalf("window %d: executing the plan: %v", w, err)
			}
			fmt.Fprintf(&b, "%s\n%s", formatObjective(objectiveOf(res)), canonicalPlan(plan))
		}
	}
	return b.String()
}

// TestPlanGolden pins the planner's output on the golden windows byte for
// byte.
func TestPlanGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 200 windows")
	}
	got := planGolden(t)
	path := filepath.Join("testdata", "plan_golden.txt")
	if *updatePlanGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate with -update-plan-golden)", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("plan golden diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("plan golden length differs: got %d lines, want %d", len(gl), len(wl))
}
