package core

import (
	"slices"
	"sync"

	"hetero2pipe/internal/pipeline"
)

// Executor memo. The executor is the planner's judge: the guarded work
// steal, the tail search's K single-processor variants per request, the
// vertical pass's final pricing and the beam's proxy pass each run a full
// co-execution simulation, and they overlap — betterCuts's un-stolen
// schedule is the tail search's base schedule, the tail winner is priced
// again by the vertical pass, and identical profiles that swap places
// assemble identical schedules. An execMemo runs each distinct schedule
// through the executor once per planCandidates call.
//
// Validity rule: the SoC, the executor options and every profile are fixed
// for the duration of one plan call, and Execute is a pure function of
// (SoC, profiles, stage ranges, options). Two schedules with the same
// profile objects in the same positions and the same stage ranges therefore
// execute to identical Results, so the memo matches on exactly that
// content. A hash of the stage ranges only narrows the search; entries
// match by comparing the profiles and every stage's From and To, so
// distinct schedules cannot collide. The memo lives for one plan call and
// is then dropped, so nothing it holds survives a degradation event.
//
// Read-only contract: a memoized *pipeline.Result is shared by every caller
// that asks for the same schedule, concurrently. Callers read it (the
// planner reads only Makespan and the objective fields) and never mutate
// it or hand it out. The memo keeps each schedule it simulated as that
// entry's key, so a schedule handed to execute must not be mutated
// afterwards (the planner clones before it edits).

// execEntry is one memoized execution. The goroutine that inserts the entry
// runs the simulation; any other caller asking for the same schedule
// meanwhile waits on ready, so every schedule runs exactly once even under
// a parallel fan-out.
type execEntry struct {
	sched *pipeline.Schedule
	// next chains entries whose stage ranges hash alike.
	next  *execEntry
	ready sync.WaitGroup
	res   *pipeline.Result
	err   error
}

// execSlabSize is the number of entries allocated at once. A memo serves
// one plan call — a handful of entries for a one-model window, a few
// hundred for a wide one — so fixed slabs keep the per-entry cost near zero
// without over-allocating small memos.
const execSlabSize = 16

// execMemo memoizes executor runs by schedule content. It is safe for
// concurrent use.
type execMemo struct {
	opts pipeline.Options

	mu    sync.Mutex
	index map[uint64]*execEntry
	// slab is the current entry slab. A full slab is replaced, never grown
	// in place, so entry pointers stay valid.
	slab []execEntry
	// evals counts simulations run (distinct schedules), hits the calls
	// served from an existing entry.
	evals, hits int
}

func newExecMemo(opts pipeline.Options) *execMemo {
	return &execMemo{opts: opts, index: make(map[uint64]*execEntry)}
}

// rangesHash hashes a schedule's layer counts and stage ranges (FNV-1a over
// words).
func rangesHash(s *pipeline.Schedule) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i, row := range s.Stages {
		h = (h ^ uint64(s.Profiles[i].NumLayers())) * prime
		for _, r := range row {
			h = (h ^ uint64(r.From)) * prime
			h = (h ^ uint64(r.To)) * prime
		}
	}
	return h
}

// sameContent reports whether two schedules on the memo's SoC run the same
// profile objects in the same positions over the same stage ranges.
func sameContent(a, b *pipeline.Schedule) bool {
	if !slices.Equal(a.Profiles, b.Profiles) || len(a.Stages) != len(b.Stages) {
		return false
	}
	for i := range a.Stages {
		if !slices.Equal(a.Stages[i], b.Stages[i]) {
			return false
		}
	}
	return true
}

// execute returns the executor's result for s, simulating it only on the
// first request for its content. The returned Result is shared; see the
// read-only contract above.
func (em *execMemo) execute(s *pipeline.Schedule) (*pipeline.Result, error) {
	h := rangesHash(s)
	em.mu.Lock()
	if e := em.find(h, s); e != nil {
		em.hits++
		em.mu.Unlock()
		e.ready.Wait()
		return e.res, e.err
	}
	e := em.insert(h, s)
	e.ready.Add(1)
	em.evals++
	em.mu.Unlock()

	e.res, e.err = pipeline.Execute(s, em.opts)
	e.ready.Done()
	return e.res, e.err
}

// find returns the entry for s's content among those hashed to h, or nil.
// The caller holds mu.
func (em *execMemo) find(h uint64, s *pipeline.Schedule) *execEntry {
	for e := em.index[h]; e != nil; e = e.next {
		if sameContent(e.sched, s) {
			return e
		}
	}
	return nil
}

// insert publishes a fresh entry for s under hash h. The caller holds mu.
func (em *execMemo) insert(h uint64, s *pipeline.Schedule) *execEntry {
	if len(em.slab) == cap(em.slab) {
		em.slab = make([]execEntry, 0, execSlabSize)
	}
	em.slab = em.slab[:len(em.slab)+1]
	e := &em.slab[len(em.slab)-1]
	e.sched = s
	e.next = em.index[h]
	em.index[h] = e
	return e
}

// stats returns the simulations run and the calls served from the memo.
func (em *execMemo) stats() (evals, hits int) {
	em.mu.Lock()
	defer em.mu.Unlock()
	return em.evals, em.hits
}
