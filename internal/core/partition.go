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
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return nil, 0, ErrInfeasiblePartition
	}
	scr := dpRowsPool.Get().(*dpRows)
	defer dpRowsPool.Put(scr)
	scr.rows, scr.choice = resizeRow(scr.rows, k), resizeRow(scr.choice, k)
	if _, err := fillPartitionRows(ctx, p, scr.rows, scr.choice, 0); err != nil {
		return nil, 0, err
	}
	best := scr.rows[k-1][n]
	if math.IsInf(best, 1) {
		return nil, 0, ErrInfeasiblePartition
	}
	return backtrackCuts(p, scr.choice, best)
}

// cancelCheckStride is how many DP cells are filled between cancellation
// checks — frequent enough for sub-millisecond abort on big chains, sparse
// enough to keep ctx.Err out of the inner-loop cost.
const cancelCheckStride = 64

// dpRows is pooled storage for one Algorithm-1 table: every stage's S* row
// and choice row. fillPartitionRows writes every cell it reads, so reused
// rows need no zeroing.
type dpRows struct {
	rows   [][]float64
	choice [][]int
}

var dpRowsPool = sync.Pool{New: func() any { return new(dpRows) }}

// fillPartitionRows fills DP rows [from, k): the stage-0 base row (prefix
// [0..j] entirely on stage 0) when from is 0, then every later stage by
// cellByScan over the previous row. Rows below from must already be
// populated. A slot at or above from is reused when its capacity suffices
// and allocated otherwise, so pooled callers fill in place while the
// partition memo, passing nil slots, publishes fresh rows. Returns the DP
// cells evaluated (the figure behind Planner.DPCells) — including those
// filled before a cancellation.
func fillPartitionRows(ctx context.Context, p *profile.Profile, rows [][]float64, choice [][]int, from int) (uint64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	var cells uint64
	for s := from; s < k; s++ {
		rows[s] = resizeRow(rows[s], n+1)
		choice[s] = resizeRow(choice[s], n+1)
	}
	if from == 0 {
		rows[0][0] = 0
		choice[0][0] = 0
		for j := 0; j < n; j++ {
			rows[0][j+1] = sliceSeconds(p, 0, 0, j)
			choice[0][j+1] = 0
			cells++
		}
		from = 1
	}
	// One child span per DP stage row when tracing is armed. The nil check
	// (not just StartChild's internal one) keeps the untraced path from
	// allocating the attribute slice on every row.
	rowParent := obs.SpanFromContext(ctx)
	for stage := from; stage < k; stage++ {
		var row *obs.Span
		if rowParent != nil {
			row = rowParent.StartChild("dp_row",
				obs.Int("stage", int64(stage)), obs.Int("layers", int64(n)))
		}
		prev, dp := rows[stage-1], rows[stage]
		dp[0] = prev[0] // empty prefix stays empty
		choice[stage][0] = 0
		for j := 0; j < n; j++ {
			if j%cancelCheckStride == 0 && ctx.Err() != nil {
				row.End()
				return cells, cancelErr(ctx)
			}
			bestI, bestV := cellByScan(p, prev, stage, j)
			dp[j+1] = bestV
			choice[stage][j+1] = bestI
			cells++
		}
		row.End()
	}
	return cells, nil
}

// resizeRow returns r resized to n, allocating only when r lacks the
// capacity (a table's slot list is resized the same way).
func resizeRow[T any](r []T, n int) []T {
	if cap(r) < n {
		return make([]T, n)
	}
	return r[:n]
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
