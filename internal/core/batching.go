package core

import (
	"context"
	"sort"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// Request batching (paper Appendix D). A single lightweight inference is
// 20–40× shorter than a heavy model's pipeline stage, so vertical alignment
// cannot balance it; coalescing same-model lightweight requests into batches
// closes the gap and amortises weight loading.

// BatchGroup maps one coalesced request back to the original request
// indices it contains.
type BatchGroup struct {
	// Model is the (possibly batched) request handed to the planner.
	Model *model.Model
	// Requests are the original request indices covered by this group.
	Requests []int
}

// CoalesceLight groups lightweight requests of the same network into
// batches sized so each batch's execution time approaches the heaviest
// request's solo time (the Appendix-D alignment target), bounded by
// maxBatch. Heavy requests pass through untouched. Request order among
// groups follows the first member of each group; batching reorders only
// identical, independent requests (frames of the same stream).
func CoalesceLight(s *soc.SoC, requests []*model.Model, maxBatch int) []BatchGroup {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if len(requests) == 0 {
		return nil
	}
	ref := referenceProcessor(s)
	times := make([]time.Duration, len(requests))
	var target time.Duration
	for i, m := range requests {
		times[i] = soc.BatchLatency(ref, m, 1)
		if times[i] != soc.InfDuration && times[i] > target {
			target = times[i]
		}
	}
	// Lightweight: under a quarter of the heaviest request.
	lightBound := target / 4

	// Collect light request indices per model name.
	type bucket struct {
		idxs []int
	}
	buckets := make(map[string]*bucket)
	var groups []BatchGroup
	for i, m := range requests {
		if times[i] == soc.InfDuration || times[i] > lightBound {
			groups = append(groups, BatchGroup{Model: m, Requests: []int{i}})
			continue
		}
		bk, ok := buckets[m.Name]
		if !ok {
			bk = &bucket{}
			buckets[m.Name] = bk
		}
		bk.idxs = append(bk.idxs, i)
	}
	for _, bk := range buckets {
		proto := requests[bk.idxs[0]]
		// A batch never exceeds the bucket, so the search stops there.
		batch := soc.AlignmentBatch(ref, proto, target, min(maxBatch, len(bk.idxs)))
		for start := 0; start < len(bk.idxs); start += batch {
			end := start + batch
			if end > len(bk.idxs) {
				end = len(bk.idxs)
			}
			members := bk.idxs[start:end]
			groups = append(groups, BatchGroup{
				Model:    model.Batched(proto, len(members)),
				Requests: append([]int(nil), members...),
			})
		}
	}
	// Stable order: by the first original index in each group.
	sort.SliceStable(groups, func(a, b int) bool {
		return groups[a].Requests[0] < groups[b].Requests[0]
	})
	return groups
}

// referenceProcessor picks the big CPU (or the first processor) as the
// Appendix-D profiling reference.
func referenceProcessor(s *soc.SoC) *soc.Processor {
	if idx := s.ProcessorsOfKind(soc.KindCPUBig); len(idx) > 0 {
		return &s.Processors[idx[0]]
	}
	return &s.Processors[0]
}

// PlanBatched coalesces lightweight requests (Appendix D) and plans the
// resulting group sequence. The returned groups parallel the plan's request
// positions after the planner's own re-ordering is applied.
func (pl *Planner) PlanBatched(requests []*model.Model, maxBatch int) (*Plan, []BatchGroup, error) {
	return pl.PlanBatchedContext(context.Background(), requests, maxBatch)
}

// PlanBatchedContext is PlanBatched under a cancellable context.
func (pl *Planner) PlanBatchedContext(ctx context.Context, requests []*model.Model, maxBatch int) (*Plan, []BatchGroup, error) {
	groups := CoalesceLight(pl.soc, requests, maxBatch)
	models := make([]*model.Model, len(groups))
	for i, g := range groups {
		models[i] = g.Model
	}
	plan, err := pl.PlanModelsContext(ctx, models)
	if err != nil {
		return nil, nil, err
	}
	return plan, OrderGroups(groups, plan.Order), nil
}

// PlanFrontierBatchedContext is PlanBatchedContext in frontier mode: it
// coalesces lightweight requests once and enumerates the Pareto frontier of
// the resulting group sequence. Because every frontier point can carry its
// own request ordering, the groups are returned in coalesce order — apply
// the selected point's ordering with OrderGroups(groups, point.Plan.Order).
func (pl *Planner) PlanFrontierBatchedContext(ctx context.Context, requests []*model.Model, maxBatch int) (*Frontier, []BatchGroup, error) {
	groups := CoalesceLight(pl.soc, requests, maxBatch)
	models := make([]*model.Model, len(groups))
	for i, g := range groups {
		models[i] = g.Model
	}
	f, err := pl.PlanFrontierModelsContext(ctx, models)
	if err != nil {
		return nil, nil, err
	}
	return f, groups, nil
}

// OrderGroups permutes batch groups into a plan's request order:
// out[pos] = groups[plan.Order[pos]]. The input is untouched.
func OrderGroups(groups []BatchGroup, order []int) []BatchGroup {
	ordered := make([]BatchGroup, len(groups))
	for pos, orig := range order {
		ordered[pos] = groups[orig]
	}
	return ordered
}
