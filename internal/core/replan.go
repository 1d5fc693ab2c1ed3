package core

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
)

// Incremental replanning. A degradation event touching processor set P
// invalidates only the affected (model, processor) cost tables; the cost
// cache already exploits that, and the partition memo here lifts the same
// partial-invalidation granularity into the Algorithm-1 DP itself.
//
// The stage-k row S*(·, k) of the recurrence
//
//	S*(j, k) = min_i max{ S*(i-1, k-1), T_k^e(i, j) }
//
// reads only processor k's cost table, the stage-(k−1) row and the SoC's
// copy parameters. The memo keeps every per-stage row plus the choice
// tables, and one validity rule decides how much of it a replan reuses:
// stage s's row is reused only while the cost tables of every stage ≤ s
// are the very objects it was computed against and the SoC's BumpEpoch
// generation is unchanged. Table identity tracks events exactly — the cost
// cache shares every unaffected *profile.Table across re-assembled
// profiles and re-measures the affected ones — so a replan resumes the DP
// at the first affected stage, min(P), and a bus-only event (a bandwidth
// squeeze stales no solo table) reuses whole partitions. It also covers
// caller-built profiles that never went through the cost cache. The
// generation covers what no table captures: Profile.SliceTime reads the
// copy bandwidth and latency live from the SoC, and an in-place
// description change is announced by BumpEpoch.
//
// Entries are immutable once published: a resume allocates fresh rows for
// the recomputed stages and shares the read-only prefix, so concurrent
// planning fan-outs never observe a half-written table. The memo survives
// InvalidateProcessors (that is its purpose), which only releases the
// invalidated stages' table references, and is dropped by InvalidateCache
// alongside everything else.

// partitionEntry is one model's memoized DP state.
type partitionEntry struct {
	// model is the structural identity guard behind the name-based key.
	model *model.Model
	// generation is the SoC's BumpEpoch generation the rows were filled
	// under.
	generation uint64
	// tables[s] is the cost-table object stage s's row was computed
	// against — the pointer-identity reuse guard. InvalidateProcessors
	// clears the invalidated stages' slots (see dropTables).
	tables []*profile.Table
	// rows[s][j+1] = S*(j, s); rows[s][0] is the empty prefix.
	rows [][]float64
	// choice[s][j+1] is the start layer stage s chose for prefix j.
	choice [][]int
	// cuts/best are the backtracked result; cuts is nil when best is +Inf
	// (no feasible partition on these tables — memoized so retries fail
	// fast and recovery events resume instead of refilling).
	cuts pipeline.Cuts
	best float64
}

// partitionMemo maps cacheKey(model) → the model's memoized DP state. All
// methods are safe for concurrent use.
type partitionMemo struct {
	mu      sync.Mutex
	entries map[modelKey]*partitionEntry
}

func newPartitionMemo() *partitionMemo {
	return &partitionMemo{entries: make(map[modelKey]*partitionEntry)}
}

func (pm *partitionMemo) lookup(key modelKey) *partitionEntry {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.entries[key]
}

func (pm *partitionMemo) store(key modelKey, e *partitionEntry) {
	pm.mu.Lock()
	pm.entries[key] = e
	pm.mu.Unlock()
}

// dropTables clears the given stages' slots in every entry. Those stages'
// tables were just invalidated and the cost cache never hands them out
// again, so keeping the references would only hold replaced tables alive
// until the model next misses the plan cache (a caller still holding an old
// table merely refills from that stage). Entries are replaced, not mutated
// (see the immutability note above).
func (pm *partitionMemo) dropTables(stages []int) {
	if len(stages) == 0 {
		return
	}
	pm.mu.Lock()
	for key, e := range pm.entries {
		c := *e
		c.tables = slices.Clone(e.tables)
		for _, s := range stages {
			if s >= 0 && s < len(c.tables) {
				c.tables[s] = nil
			}
		}
		pm.entries[key] = &c
	}
	pm.mu.Unlock()
}

func (pm *partitionMemo) invalidate() {
	pm.mu.Lock()
	pm.entries = make(map[modelKey]*partitionEntry)
	pm.mu.Unlock()
}

// resumeStage decides how much of a memo entry survives for profile p:
// stages [0, resume) are reusable, and resume == len(e.tables) means the
// whole partition (rows, cuts, best) is still valid.
func (e *partitionEntry) resumeStage(p *profile.Profile) int {
	if e.generation != p.SoC().Generation() {
		return 0
	}
	// Stage s's row depends on the tables of stages ≤ s.
	for s, t := range e.tables {
		if t != p.Table(s) {
			return s
		}
	}
	return len(e.tables)
}

// partition runs the Algorithm-1 DP for one profile through the memo: it
// reuses the memoized partition, or resumes its table at the first stage
// resumeStage rejects, and fills from stage zero when the model has no
// usable entry — byte-identical to Partition either way (the differential
// suite pins it). The evaluated cells accumulate into the planner's
// lifetime counter and registry. Runs under a "partition" span carrying
// dp_cells and, when anything was reused, a resume_stage attribute; its
// children are the per-stage dp_row spans fillPartitionRows emits.
func (pl *Planner) partition(ctx context.Context, p *profile.Profile) (pipeline.Cuts, float64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return nil, 0, ErrInfeasiblePartition
	}
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, sp = obs.StartSpan(ctx, "partition", obs.Str("model", p.Model().Name))
	}

	key := cacheKey(p.Model())
	entry := pl.partMemo.lookup(key)
	resume := 0
	if entry != nil && sameModel(entry.model, p.Model()) &&
		len(entry.rows) == k && len(entry.tables) == k && len(entry.rows[0]) == n+1 {
		resume = entry.resumeStage(p)
	} else {
		entry = nil
	}

	if entry != nil && resume == k {
		// Whole partition reused: a repeat window, or an event that staled
		// no table of this model. Zero DP cells evaluated.
		pl.incrReuse.Add(1)
		pl.mIncrReuse.Inc()
		sp.SetAttrs(obs.Int("dp_cells", 0), obs.Int("resume_stage", int64(k)))
		sp.End()
		if math.IsInf(entry.best, 1) {
			return nil, 0, ErrInfeasiblePartition
		}
		return append(pipeline.Cuts(nil), entry.cuts...), entry.best, nil
	}

	// Refill stages [resume, k), sharing the clean prefix rows read-only.
	rows := make([][]float64, k)
	choice := make([][]int, k)
	for s := 0; s < resume; s++ {
		rows[s] = entry.rows[s]
		choice[s] = entry.choice[s]
	}
	cells, err := fillPartitionRows(ctx, p, rows, choice, resume)
	pl.dpCells.Add(cells)
	pl.mDPCells.Add(cells)
	sp.SetAttrs(obs.Int("dp_cells", int64(cells)))
	if resume > 0 {
		pl.incrReuse.Add(1)
		pl.mIncrReuse.Inc()
		sp.SetAttrs(obs.Int("resume_stage", int64(resume)))
	}
	sp.End()
	if err != nil {
		return nil, 0, err
	}

	tables := make([]*profile.Table, k)
	for s := 0; s < k; s++ {
		tables[s] = p.Table(s)
	}
	fresh := &partitionEntry{
		model: p.Model(), generation: p.SoC().Generation(), tables: tables,
		rows: rows, choice: choice, best: rows[k-1][n],
	}
	if math.IsInf(fresh.best, 1) {
		pl.partMemo.store(key, fresh)
		return nil, 0, ErrInfeasiblePartition
	}
	cuts, best, err := backtrackCuts(p, choice, fresh.best)
	if err != nil {
		return nil, 0, err
	}
	fresh.cuts = append(pipeline.Cuts(nil), cuts...)
	pl.partMemo.store(key, fresh)
	return cuts, best, nil
}

// IncrementalReuse reports the lifetime count of partitions served from the
// incremental-replanning memo — fully reused or resumed mid-table.
func (pl *Planner) IncrementalReuse() uint64 { return pl.incrReuse.Load() }

// mitigationMemo caches Algorithm-2 assignments by content: Mitigate is a
// pure function of (class vector, stage count), so entries never go stale
// — not across degradation events, not across SoC swaps. Bounded by reset:
// the key space in practice is tiny (class vectors are at most
// MaxWindow long over a two-letter alphabet).
type mitigationMemo struct {
	mu sync.Mutex
	m  map[string][]int
}

// mitigationMemoCap bounds the memo; on overflow the map is reset (the
// working set re-fills within one window).
const mitigationMemoCap = 512

func newMitigationMemo() *mitigationMemo {
	return &mitigationMemo{m: make(map[string][]int)}
}

func (mm *mitigationMemo) mitigate(classes []contention.Class, k int) []int {
	var b strings.Builder
	b.Grow(len(classes) + 8)
	for _, c := range classes {
		b.WriteByte(byte('0' + int(c)))
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k))
	key := b.String()
	mm.mu.Lock()
	if v, ok := mm.m[key]; ok {
		mm.mu.Unlock()
		return v
	}
	mm.mu.Unlock()
	v := Mitigate(classes, k)
	mm.mu.Lock()
	if len(mm.m) >= mitigationMemoCap {
		mm.m = make(map[string][]int)
	}
	mm.m[key] = v
	mm.mu.Unlock()
	return v
}
