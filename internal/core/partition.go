// Package core implements the Hetero²Pipe planner — the paper's primary
// contribution: Algorithm 1 (dynamic-programming horizontal model
// partitioning with monotonicity pruning and NPU-fallback awareness),
// Algorithm 2 (contention mitigation by re-ordering requests via the Linear
// Assignment Problem), Algorithm 3 (vertical alignment by work stealing plus
// tail-bubble local search), and the two-step Planner that composes them.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// ErrInfeasiblePartition is returned when no stage assignment covers the
// model (cannot happen on SoCs whose CPU supports every operator, but
// guarded for custom configurations).
var ErrInfeasiblePartition = errors.New("core: no feasible partition")

// sliceSeconds returns the slice cost f(k, i, j) in seconds, +Inf when the
// slice cannot run on stage k. An empty slice costs zero.
func sliceSeconds(p *profile.Profile, k, i, j int) float64 {
	if j < i {
		return 0
	}
	d := p.SliceTime(k, i, j)
	if d == soc.InfDuration {
		return math.Inf(1)
	}
	return d.Seconds()
}

// Partition solves P1 (Eq. 4) for one model: choose stage boundaries
// minimising the maximum per-stage time over the SoC's capability-ordered
// processors, with empty stages allowed (this is how NPU-unsupported
// operators "fall back": the DP gives the NPU an empty or short supported
// prefix and the work flows to the next stage, exactly the fallback
// behaviour Sec. IV describes).
//
// The recurrence is the paper's optimal substructure
//
//	S*(j, k) = min_i max{ S*(i-1, k-1), T_k^e(i, j) }
//
// computed stage by stage with the Property-2 monotonicity prune: S*(·, k-1)
// is non-decreasing in its prefix, so once S*(i-1, k-1) reaches the best
// candidate found for a cell, no larger i can improve it and the inner scan
// stops. Unlike a pure crossing-point binary search this stays exact even
// though the memory-copy term T^c(i) of Eq. (2) is not itself monotone in i
// (boundary tensor sizes vary along the chain).
//
// It returns the boundary vector and the bottleneck stage time in seconds.
func Partition(p *profile.Profile) (pipeline.Cuts, float64, error) {
	return PartitionContext(context.Background(), p)
}

// PartitionContext is Partition under a cancellable context: the DP checks
// for cancellation between cell rows, so a long chain aborts promptly
// without finishing its table.
func PartitionContext(ctx context.Context, p *profile.Profile) (pipeline.Cuts, float64, error) {
	scr, best, _, err := partitionTable(ctx, p)
	if err != nil {
		return nil, 0, err
	}
	cuts, best, err := backtrackCuts(p, scr.choice, best)
	putDPScratch(scr)
	return cuts, best, err
}

// cancelCheckStride is how many DP cells are filled between cancellation
// checks — frequent enough for sub-millisecond abort on big chains, sparse
// enough to keep ctx.Err out of the inner-loop cost.
const cancelCheckStride = 64

// dpScratch is the pooled scratch state of one Algorithm-1 DP: the two
// rolling S* rows and the per-stage choice table. Every cell the DP reads
// is written first on every run, so reused buffers need no zeroing; callers
// return the scratch to the pool with putDPScratch once backtracking has
// consumed the choice table.
type dpScratch struct {
	// dp[j+1] = S*(j, stage) for prefix ending at layer j; dp[0] = S*(∅).
	dp, prev []float64
	// choice[k][j+1] = the i chosen (start layer of stage k's slice; i=j+1
	// encodes an empty slice).
	choice [][]int
}

var dpScratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

// getDPScratch returns pooled scratch sized for an n-layer, k-stage DP.
func getDPScratch(n, k int) *dpScratch {
	s := dpScratchPool.Get().(*dpScratch)
	if cap(s.dp) < n+1 {
		s.dp = make([]float64, n+1)
	} else {
		s.dp = s.dp[:n+1]
	}
	if cap(s.prev) < n+1 {
		s.prev = make([]float64, n+1)
	} else {
		s.prev = s.prev[:n+1]
	}
	if cap(s.choice) >= k {
		s.choice = s.choice[:k]
	} else {
		old := s.choice[:cap(s.choice)]
		s.choice = make([][]int, k)
		copy(s.choice, old) // keep the rows' backing arrays for reuse
	}
	for i := range s.choice {
		if cap(s.choice[i]) < n+1 {
			s.choice[i] = make([]int, n+1)
		} else {
			s.choice[i] = s.choice[i][:n+1]
		}
	}
	return s
}

func putDPScratch(s *dpScratch) { dpScratchPool.Put(s) }

// partitionTable fills the DP and returns the scratch holding the per-stage
// choice table, the optimal bottleneck, and the number of DP cells
// evaluated (the observability figure behind Planner.DPCells — base row
// plus every (stage, j) cell filled before completion or cancellation).
// Ownership of the scratch transfers to the caller on success (release with
// putDPScratch after backtracking); error returns recycle it internally.
func partitionTable(ctx context.Context, p *profile.Profile) (*dpScratch, float64, uint64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return nil, 0, 0, ErrInfeasiblePartition
	}
	var cells uint64

	scr := getDPScratch(n, k)
	dp, prev, choice := scr.dp, scr.prev, scr.choice

	// Stage 0 base: prefix [0..j] entirely on stage 0 (or empty).
	prev[0] = 0
	for j := 0; j < n; j++ {
		prev[j+1] = sliceSeconds(p, 0, 0, j)
		choice[0][j+1] = 0
		cells++
	}
	choice[0][0] = 0

	// One child span per DP stage row when tracing is armed. The nil check
	// (not just StartChild's internal one) keeps the untraced path from
	// allocating the attribute slice on every row.
	rowParent := obs.SpanFromContext(ctx)
	for stage := 1; stage < k; stage++ {
		var row *obs.Span
		if rowParent != nil {
			row = rowParent.StartChild("dp_row",
				obs.Int("stage", int64(stage)), obs.Int("layers", int64(n)))
		}
		dp[0] = prev[0] // empty prefix stays empty
		choice[stage][0] = 0
		for j := 0; j < n; j++ {
			if j%cancelCheckStride == 0 && ctx.Err() != nil {
				row.End()
				putDPScratch(scr)
				return nil, 0, cells, cancelErr(ctx)
			}
			bestI, bestV := cellByScan(p, prev, stage, j)
			dp[j+1] = bestV
			choice[stage][j+1] = bestI
			cells++
		}
		row.End()
		dp, prev = prev, dp
	}
	best := prev[n]
	if math.IsInf(best, 1) {
		putDPScratch(scr)
		return nil, 0, cells, ErrInfeasiblePartition
	}
	return scr, best, cells, nil
}

// cellByScan minimises max(prev[i], cost(i, j)) exactly, pruning on the
// monotone prev: once prev[i] ≥ the best value so far, no larger i helps.
func cellByScan(p *profile.Profile, prev []float64, stage, j int) (int, float64) {
	bestI, bestV := j+1, math.Max(prev[j+1], 0) // empty slice candidate
	for i := 0; i <= j; i++ {
		if prev[i] >= bestV {
			break
		}
		v := math.Max(prev[i], sliceSeconds(p, stage, i, j))
		if v < bestV {
			bestI, bestV = i, v
		}
	}
	return bestI, bestV
}

// backtrackCuts recovers boundary vectors from the choice table.
func backtrackCuts(p *profile.Profile, choice [][]int, best float64) (pipeline.Cuts, float64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()

	// Backtrack boundaries: cuts[s] is the first layer of stage s.
	cuts := make(pipeline.Cuts, k+1)
	cuts[k] = n
	end := n // exclusive end of current stage's slice
	for stage := k - 1; stage >= 1; stage-- {
		start := choice[stage][end]
		cuts[stage] = start
		end = start
	}
	cuts[0] = 0
	if !pipeline.ValidCuts(cuts, n, k) {
		return nil, 0, fmt.Errorf("core: internal: backtracked cuts %v invalid", []int(cuts))
	}
	return cuts, best, nil
}

// partitionReference is the direct O(n²K) realisation of the recurrence,
// kept for cross-checking the pruned version in tests.
func partitionReference(p *profile.Profile) (float64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return 0, ErrInfeasiblePartition
	}
	prev := make([]float64, n+1)
	dp := make([]float64, n+1)
	prev[0] = 0
	for j := 0; j < n; j++ {
		prev[j+1] = sliceSeconds(p, 0, 0, j)
	}
	for stage := 1; stage < k; stage++ {
		dp[0] = prev[0]
		for j := 0; j < n; j++ {
			best := math.Inf(1)
			for i := 0; i <= j+1; i++ {
				v := math.Max(prev[i], sliceSeconds(p, stage, i, j))
				if v < best {
					best = v
				}
			}
			dp[j+1] = best
		}
		dp, prev = prev, dp
	}
	if math.IsInf(prev[n], 1) {
		return 0, ErrInfeasiblePartition
	}
	return prev[n], nil
}
