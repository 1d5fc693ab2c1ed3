package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	h2p "hetero2pipe"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, err := w.inputs(w, 42)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.inputs(w, 42)
			if err != nil {
				t.Fatal(err)
			}
			c, err := w.inputs(w, 43)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != w.Frames {
				t.Fatalf("%d bursts, want %d", len(a), w.Frames)
			}
			if render(a) != render(b) {
				t.Fatal("the same seed gave different inputs")
			}
			if render(a) == render(c) {
				t.Fatal("different seeds gave identical inputs")
			}
			for f, reqs := range a {
				if len(reqs) != burstSize {
					t.Fatalf("burst %d has %d requests, want %d", f, len(reqs), burstSize)
				}
				for i := 1; i < len(reqs); i++ {
					if reqs[i].Arrival < reqs[i-1].Arrival {
						t.Fatalf("burst %d not sorted by arrival at %d", f, i)
					}
				}
			}
		})
	}
}

// render prints a workload's inputs for comparison.
func render(bursts [][]h2p.StreamRequest) string {
	var b strings.Builder
	for _, reqs := range bursts {
		for _, r := range reqs {
			b.WriteString(r.Model.Name + "@" + r.Arrival.String() + "/" + r.Deadline.String() + " ")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestNearestRankReportsSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	cases := []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 50, 50},
		{99, 99, 1},
		{100, 100, 0},
		{1, 1, 99},
	}
	for _, c := range cases {
		q := nearestRank(xs, c.p)
		if q.Value != c.value || q.N != 100 || q.Beyond != c.beyond {
			t.Errorf("p%v = %+v, want value %v n 100 beyond %d", c.p, q, c.value, c.beyond)
		}
	}
	if xs[0] != 100 {
		t.Error("nearestRank sorted its input in place")
	}
	if q := nearestRank(nil, 50); !math.IsNaN(q.Value) || q.N != 0 {
		t.Errorf("empty input gave %+v, want NaN over 0 samples", q)
	}
	// Every workload's input cycle leaves ten bursts beyond its p99.
	for _, w := range workloads {
		if q := nearestRank(make([]float64, w.Frames), 99); q.Beyond < 10 {
			t.Errorf("%s: p99 of %d bursts has %d beyond it, want at least 10", w.Name, w.Frames, q.Beyond)
		}
	}
}

func TestReplayMediansIgnoreOneNoisyReplay(t *testing.T) {
	const period = 100
	xs := make([]float64, 0, 3*period+7)
	for r := 0; r < 3; r++ {
		for i := 1; i <= period; i++ {
			x := float64(i)
			if r == 1 && i > 50 {
				x *= 10 // replays slowed by outside interference
			}
			xs = append(xs, x)
		}
	}
	xs = append(xs, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9) // trailing partial cycle
	per := replayMedians(xs, period)
	if len(per) != period {
		t.Fatalf("%d medians, want %d", len(per), period)
	}
	for i, x := range per {
		if want := float64(i + 1); x != want {
			t.Errorf("input %d: median %v, want %v", i, x, want)
		}
	}
	if pooled := nearestRank(xs, 99).Value; pooled == nearestRank(per, 99).Value {
		t.Errorf("pooled p99 = %v; the test data should move it", pooled)
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	if got := (ratio{3, 4}).String(); got != "0.7500 (3/4)" {
		t.Errorf("ratio{3,4} = %q", got)
	}
	if got := (ratio{0, 0}).String(); got != "n/a (0/0)" {
		t.Errorf("empty ratio = %q", got)
	}
	if v := (ratio{1, 0}).Value(); v != 0 {
		t.Errorf("empty base gave %v, want 0", v)
	}
}

// basePattern matches the "(num/base)" a ratio's note must carry.
var basePattern = regexp.MustCompile(`\([0-9.e+]+/[0-9.e+]+\)`)

func checkRatioBases(t *testing.T, rep *report) {
	t.Helper()
	for _, m := range rep.Metrics.list {
		if m.Unit == "ratio" && !basePattern.MatchString(m.Note) && !strings.HasPrefix(m.Note, "1 - traced") {
			t.Errorf("ratio %s printed without its base: %q", m.Name, m.Note)
		}
	}
}

// smallSpec shrinks a workload's input cycle for a quick run.
func smallSpec(t *testing.T, name string) *workloadSpec {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	small := *w
	small.Frames = 6
	return &small
}

// benchmarkJSON reads the benchmark definition from the repository root.
func benchmarkJSON(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def map[string]json.RawMessage
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func metricNames(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(raw, &ms); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name + " " + m.Unit
	}
	sort.Strings(names)
	return names
}

func emitted(rep *report) []string {
	var names []string
	for _, m := range rep.Metrics.list {
		if !m.TextOnly {
			names = append(names, m.Name+" "+m.Unit)
		}
	}
	sort.Strings(names)
	return names
}

func TestSmokeRunsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def := benchmarkJSON(t)
	wantE2E := metricNames(t, def["end_to_end"])
	wantLayer := metricNames(t, def["per_layer"])
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			small := smallSpec(t, w.Name)
			o := options{workload: w.Name, seed: 7, seconds: 1}

			rep, err := runTimed(ctx, small, o, maxProcs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || len(rep.Problems) != 0 {
				t.Fatalf("timed run: %d of %d failed: %v", rep.Failed, rep.Attempted, rep.Problems)
			}
			checkRatioBases(t, rep)
			if got := emitted(rep); strings.Join(got, ",") != strings.Join(wantE2E, ",") {
				t.Errorf("timed run emits %v, BENCHMARK.json names %v", got, wantE2E)
			}
			for _, m := range rep.Metrics.list {
				if !m.TextOnly && m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want positive", m.Name, m.Value)
				}
			}
			if _, err := resultLine(rep); err != nil {
				t.Fatal(err)
			}

			rep, err = runTraced(ctx, small, o, maxProcs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || len(rep.Problems) != 0 {
				t.Fatalf("traced run: %d of %d failed: %v", rep.Failed, rep.Attempted, rep.Problems)
			}
			checkRatioBases(t, rep)
			if got := emitted(rep); strings.Join(got, ",") != strings.Join(wantLayer, ",") {
				t.Errorf("traced run emits %v, BENCHMARK.json names %v", got, wantLayer)
			}
			// The workloads do what their why lines say: the plan cache is
			// hit on fleet-steady, missed on diverse-mix, and in between
			// on churn.
			hits, _ := rep.Metrics.get("core.plancache.hit_ratio")
			if lo, hi := hitRange(w.Name); hits.Value < lo || hits.Value > hi {
				t.Errorf("core.plancache.hit_ratio = %v on %s, want within [%v, %v]", hits.Value, w.Name, lo, hi)
			}
			route, _ := rep.Metrics.get("fleet.route_ns_per_req")
			if (route.Value > 0) != w.Fleet {
				t.Errorf("fleet.route_ns_per_req = %v on %s", route.Value, w.Name)
			}
			replans, _ := rep.Metrics.get("stream.replans_per_burst")
			if (replans.Value > 0) != (len(w.Events) > 0) {
				t.Errorf("stream.replans_per_burst = %v on %s", replans.Value, w.Name)
			}
		})
	}
}

// hitRange is the plan-cache hit ratio each workload is built to show.
func hitRange(name string) (lo, hi float64) {
	switch name {
	case "fleet-steady":
		return 0.95, 1
	case "diverse-mix":
		return 0, 0.1
	}
	return 0.1001, 0.9499
}

func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	def := benchmarkJSON(t)
	var ws []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	if err := json.Unmarshal(def["workloads"], &ws); err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(ws), len(workloads))
	}
	for i, w := range ws {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the benchmark %q / %q",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestCriticalPathSumsToWallTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// A fleet burst: two shards run concurrently. The later-ending shard is
	// on the path; the earlier one is followed only where it runs before
	// the later one starts.
	spans := []h2p.SpanData{
		{ID: 1, Name: "bench.burst", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "fleet_run", Start: at(5), End: at(95)},
		{ID: 3, Parent: 2, Name: "fleet_device", Start: at(10), End: at(60)},
		{ID: 4, Parent: 2, Name: "fleet_device", Start: at(12), End: at(90)},
		{ID: 5, Parent: 4, Name: "stream_run", Start: at(15), End: at(88)},
		{ID: 6, Parent: 5, Name: "plan", Start: at(20), End: at(40)},
		{ID: 7, Parent: 6, Name: "tail_search", Start: at(25), End: at(35)}, // unknown name: inherits core
		{ID: 8, Parent: 5, Name: "execute", Start: at(40), End: at(80)},
	}
	tree := spanTree(spans, 1)
	path := map[string]time.Duration{}
	criticalPath(tree, tree.Start, tree.End, path)
	ms := time.Millisecond
	want := map[string]time.Duration{
		layerUnattributed: 10 * ms, // 0-5, 95-100
		"fleet":           17 * ms, // fleet_run 5-10, 90-95; shard 3 10-12; shard 4 12-15, 88-90
		"stream":          13 * ms, // 15-20, 80-88
		"core":            20 * ms, // plan 20-40, tail_search included
		"pipeline":        40 * ms, // execute 40-80
	}
	var sum time.Duration
	for l, d := range path {
		sum += d
		if d != want[l] {
			t.Errorf("layer %s: %v on the path, want %v", l, d, want[l])
		}
	}
	if sum != 100*ms {
		t.Errorf("path sums to %v, want the burst's 100ms", sum)
	}

	self := map[string]time.Duration{}
	selfTimes(tree, self)
	// Both shards count in full off the path: fleet_run's own time is what
	// no shard covers (5-10, 90-95), plus each shard's time outside its run.
	if got := self["fleet"]; got != (10+50+(78-73))*ms {
		t.Errorf("fleet self time %v, want %v", got, (10+50+(78-73))*ms)
	}
	if got := self["core"]; got != 20*ms {
		t.Errorf("core self time %v, want 20ms (tail_search folds into its parent's layer)", got)
	}
}

// get returns the named metric.
func (s *metricSet) get(name string) (metric, bool) {
	for _, m := range s.list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
