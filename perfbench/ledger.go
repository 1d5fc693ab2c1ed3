package main

import (
	"sort"
	"time"

	h2p "hetero2pipe"
)

// The traced run's span tree: the benchmark's own root span ("bench.burst")
// wraps each facade call, and the program's spans hang below it. Each span
// name belongs to one layer, named after the repository's modules; a name
// the table does not know inherits its parent's layer, so spans added to the
// program later still land in the right layer.
var spanLayer = map[string]string{
	"bench.burst":    layerUnattributed,
	"fleet_run":      "fleet",
	"fleet_device":   "fleet",
	"fleet_failover": "fleet",
	"stream_run":     "stream",
	"window":         "stream",
	"plan_retry":     "stream",
	"replan":         "stream",
	"requeue":        "stream",
	"plan":           "core",
	"partition":      "core",
	"dp_row":         "core",
	"execute":        "pipeline",
	"slice":          "pipeline",
}

// layerUnattributed collects time inside the burst that no layer span
// covers: the facade's own code around the layer calls.
const layerUnattributed = "unattributed"

// ledgerLayers is the print order of the span-covered layers.
var ledgerLayers = []string{"fleet", "stream", "core", "pipeline"}

type spanNode struct {
	h2p.SpanData
	layer string
	kids  []*spanNode
}

func (n *spanNode) dur() time.Duration { return n.End.Sub(n.Start) }

// spanTree rebuilds the subtree under root from a recorder snapshot. It
// returns nil when root is not in the snapshot.
func spanTree(spans []h2p.SpanData, root uint64) *spanNode {
	nodes := make(map[uint64]*spanNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &spanNode{SpanData: s}
	}
	top := nodes[root]
	if top == nil {
		return nil
	}
	for _, n := range nodes {
		if p := nodes[n.Parent]; p != nil && n.ID != root {
			p.kids = append(p.kids, n)
		}
	}
	var label func(n *spanNode, parent string)
	label = func(n *spanNode, parent string) {
		n.layer = parent
		if l, ok := spanLayer[n.Name]; ok {
			n.layer = l
		}
		sort.Slice(n.kids, func(a, b int) bool { return n.kids[a].Start.Before(n.kids[b].Start) })
		for _, k := range n.kids {
			label(k, n.layer)
		}
	}
	label(top, layerUnattributed)
	return top
}

// criticalPath attributes every instant of [lo, hi] inside n to exactly one
// layer, walking backwards from hi: the child whose (clipped) interval ends
// last owns its stretch and is followed recursively, the gaps between
// children belong to n's own layer. Concurrent children that end earlier
// (other fleet shards running in parallel) are off the path. The attributed
// times therefore sum to hi − lo exactly: the layer shares of a burst add
// up to its wall time.
func criticalPath(n *spanNode, lo, hi time.Time, acc map[string]time.Duration) {
	cursor := hi
	for cursor.After(lo) {
		var best *spanNode
		var bestEnd time.Time
		for _, k := range n.kids {
			s, e := later(k.Start, lo), earlier(k.End, cursor)
			if !e.After(s) {
				continue
			}
			if best == nil || e.After(bestEnd) || (e.Equal(bestEnd) && k.dur() > best.dur()) {
				best, bestEnd = k, e
			}
		}
		if best == nil {
			acc[n.layer] += cursor.Sub(lo)
			return
		}
		acc[n.layer] += cursor.Sub(bestEnd)
		start := later(best.Start, lo)
		criticalPath(best, start, bestEnd, acc)
		cursor = start
	}
}

// selfTimes adds every span's own time — its duration minus the union of
// its children's intervals — to its layer. Unlike criticalPath it counts
// concurrent shards in full, so it measures work done per window rather
// than wall time on the burst's path.
func selfTimes(n *spanNode, acc map[string]time.Duration) {
	covered := time.Duration(0)
	var curS, curE time.Time
	open := false
	for _, k := range n.kids { // sorted by start
		s, e := later(k.Start, n.Start), earlier(k.End, n.End)
		if !e.After(s) {
			continue
		}
		if open && !s.After(curE) {
			curE = later(curE, e)
			continue
		}
		if open {
			covered += curE.Sub(curS)
		}
		curS, curE, open = s, e, true
	}
	if open {
		covered += curE.Sub(curS)
	}
	acc[n.layer] += n.dur() - covered
	for _, k := range n.kids {
		selfTimes(k, acc)
	}
}

// walk visits every node of the tree.
func walk(n *spanNode, visit func(*spanNode)) {
	visit(n)
	for _, k := range n.kids {
		walk(k, visit)
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func earlier(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
