package core

import (
	"context"
	"math"
	"sort"
	"time"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/parallel"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Bounded-suboptimality beam sweep (Options.BeamWidth / BeamEpsilon /
// AnytimeDeadline). The exact sweep prices every candidate ordering with
// the full vertical machinery — work stealing plus the m×K-execution tail
// search — which dominates planning cost on large windows. The beam sweep
// prunes it in three moves:
//
//  1. Proxy pass: every candidate's DP-cut schedule is executed as-is (one
//     simulator run, no stealing, no tail search). The vertical pass only
//     ever accepts strict executed-makespan improvements over exactly this
//     schedule, so proxy(c) ≥ vertical(c): the proxy is an admissible
//     pessimistic estimate and sorting by it front-loads the candidates
//     most likely to win.
//  2. Beam: the BeamWidth best-proxy candidates (ties by candidate index)
//     run the full vertical pass, concurrently, merged in index order.
//  3. Escalation: while the best executed makespan exceeds
//     (1+ε)·LB — LB the window makespan lower bound below — the sweep keeps
//     evaluating pruned candidates in proxy order (until the deadline, when
//     one is armed).
//
// Regret bound: LB is a lower bound on EVERY schedule's executed makespan,
// in particular on the exact sweep's winner, so when escalation stops at
// best ≤ (1+ε)·LB it holds that best ≤ (1+ε)·exact; and when escalation
// exhausts the candidates, best = exact. Either way the beam plan is within
// (1+ε)× of the exact plan — unconditionally, not just in expectation
// (FuzzBeamRegret pins it). Only an elapsed AnytimeDeadline voids the
// bound, which is the documented determinism/latency trade.

// beamActive reports whether the sweep should be pruned: a width strictly
// below the candidate count, or an armed deadline. Any other configuration
// falls through to the exact sweep — the path the differential suite pins —
// so width ≥ candidates reproduces the exact plan byte-identically.
func (pl *Planner) beamActive(numCandidates int) bool {
	if pl.opts.AnytimeDeadline > 0 {
		return true
	}
	return pl.opts.BeamWidth > 0 && pl.opts.BeamWidth < numCandidates
}

// beamLowerBound returns a lower bound (seconds) on the executed makespan
// of every possible window schedule: the max of
//
//   - the heaviest model's critical path Σ_l min_k ExecTime(k, l) — every
//     layer must run somewhere, paying at least its cheapest solo exec
//     time; copies, launch overheads and co-execution slowdown (≥ 1) only
//     add to it — and
//   - the total-work bound Σ_models Σ_l min_k ExecTime(k, l) / K: K
//     processors cannot retire solo-priced work faster than K-way.
//
// Solo exec time (profile.LayerTime), NOT SliceTime: the copy term of
// SliceTime is only paid at stage boundaries, so it is not a valid
// per-layer lower bound. Layers no processor supports contribute zero
// (such a window fails planning outright anyway).
func beamLowerBound(profiles []*profile.Profile) float64 {
	maxModel, total := 0.0, 0.0
	k := 0
	for _, p := range profiles {
		if p.NumProcessors() > k {
			k = p.NumProcessors()
		}
		sum := 0.0
		for i := 0; i < p.NumLayers(); i++ {
			best := math.Inf(1)
			for proc := 0; proc < p.NumProcessors(); proc++ {
				if d := p.LayerTime(proc, i); d != soc.InfDuration {
					if s := d.Seconds(); s < best {
						best = s
					}
				}
			}
			if !math.IsInf(best, 1) {
				sum += best
			}
		}
		if sum > maxModel {
			maxModel = sum
		}
		total += sum
	}
	if k > 0 {
		if byWork := total / float64(k); byWork > maxModel {
			return byWork
		}
	}
	return maxModel
}

// proxyMakespan executes one candidate's DP-cut schedule as-is and returns
// its makespan in seconds — +Inf when the schedule cannot assemble or run,
// which deprioritises (but does not exclude) the candidate.
func (pl *Planner) proxyMakespan(memo *execMemo, profiles []*profile.Profile, cuts []pipeline.Cuts, order []int) float64 {
	m := len(order)
	ordP := make([]*profile.Profile, m)
	ordC := make([]pipeline.Cuts, m)
	for pos, orig := range order {
		ordP[pos] = profiles[orig]
		ordC[pos] = cuts[orig]
	}
	sched, err := pipeline.FromCuts(pl.soc, ordP, ordC)
	if err != nil {
		return math.Inf(1)
	}
	res, err := memo.execute(sched)
	if err != nil {
		return math.Inf(1)
	}
	return res.Makespan.Seconds()
}

// beamCandidates is the pruned sweep: it returns plans/objs slices indexed
// like candidates, with nil/zero holes at the candidates the beam never
// priced. Consumers (the winner scan and the frontier filter) skip the
// holes, so candidate indices — and with them frontier tie-breaks — keep
// their exact-sweep meaning. Except under an elapsed deadline the result
// is deterministic: the proxy pass, its (proxy, index) sort, the parallel
// beam batch (merged in index order) and the escalation order are all
// independent of scheduling and worker count.
func (pl *Planner) beamCandidates(ctx context.Context, memo *execMemo, profiles []*profile.Profile, cuts []pipeline.Cuts,
	classes []contention.Class, intensities, makespans []float64,
	candidates [][]int, k int) ([]*Plan, []Objective, error) {
	start := time.Now()
	nc := len(candidates)
	lb := beamLowerBound(profiles)

	// Proxy pass: cheap admissible pricing of every candidate, in parallel,
	// each worker writing only its own index.
	proxy := make([]float64, nc)
	err := parallel.ForErr(pl.workers(), nc, func(ci int) error {
		if ctx.Err() != nil {
			return cancelErr(ctx)
		}
		proxy[ci] = pl.proxyMakespan(memo, profiles, cuts, candidates[ci])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if proxy[order[a]] != proxy[order[b]] {
			return proxy[order[a]] < proxy[order[b]]
		}
		return order[a] < order[b]
	})

	width := pl.opts.BeamWidth
	if width <= 0 || width > nc {
		// Deadline-only mode: intend the full sweep, let the deadline prune.
		width = nc
	}

	plans := make([]*Plan, nc)
	objs := make([]Objective, nc)
	evaluated := 0
	evaluate := func(ci int) error {
		plan, obj, err := pl.verticalPass(ctx, memo, profiles, cuts, classes, intensities, makespans, candidates[ci], k)
		if err != nil {
			return err
		}
		plans[ci] = plan
		objs[ci] = obj
		evaluated++
		return nil
	}

	// Beam batch: the width best-proxy candidates through the full vertical
	// pass, concurrently, merged in index order.
	err = parallel.ForErr(pl.workers(), width, func(bi int) error {
		if ctx.Err() != nil {
			return cancelErr(ctx)
		}
		ci := order[bi]
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
	evaluated = width

	best := math.Inf(1)
	for ci, plan := range plans {
		if plan == nil {
			continue
		}
		if span := objs[ci].Makespan.Seconds(); span < best {
			best = span
		}
	}

	// Escalation: keep pricing pruned candidates in proxy order until the
	// regret bound closes (best ≤ (1+ε)·LB ≤ (1+ε)·exact) or — under an
	// armed deadline — the wall-clock budget runs out.
	bound := (1 + pl.opts.BeamEpsilon) * lb
	for bi := width; bi < nc; bi++ {
		if best <= bound {
			break
		}
		if dl := pl.opts.AnytimeDeadline; dl > 0 && time.Since(start) >= dl {
			break
		}
		if ctx.Err() != nil {
			return nil, nil, cancelErr(ctx)
		}
		ci := order[bi]
		if err := evaluate(ci); err != nil {
			return nil, nil, err
		}
		if span := objs[ci].Makespan.Seconds(); span < best {
			best = span
		}
	}

	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetAttrs(
			obs.Int("beam_width", int64(width)),
			obs.Int("beam_evaluated", int64(evaluated)),
			obs.Int("beam_candidates", int64(nc)))
	}
	return plans, objs, nil
}
