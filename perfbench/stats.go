package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// quantile is a nearest-rank percentile together with the sample count it
// was taken over, so a printed tail always says how many samples back it.
type quantile struct {
	Value float64
	N     int
	// Beyond is how many samples lie strictly above the quantile's rank —
	// a p99 needs at least ten of them to mean anything.
	Beyond int
}

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. xs is not modified.
func nearestRank(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{Value: sorted[rank-1], N: n, Beyond: n - rank}
}

// replayMedians takes samples of a cycle of period inputs replayed in order
// (sample i is of input i mod period) and returns each input's median
// sample. A trailing partial cycle counts for the inputs it reached.
func replayMedians(xs []float64, period int) []float64 {
	out := make([]float64, period)
	col := make([]float64, 0, len(xs)/period+1)
	for i := range out {
		col = col[:0]
		for j := i; j < len(xs); j += period {
			col = append(col, xs[j])
		}
		out[i] = nearestRank(col, 50).Value
	}
	return out
}

// ratio is a share printed with the counts it came from.
type ratio struct {
	Num, Base float64
}

// Value is Num/Base, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Num / r.Base
}

// String renders the ratio with its base, e.g. "0.9990 (2997/3000)".
func (r ratio) String() string {
	if r.Base == 0 {
		return "n/a (0/0)"
	}
	return fmt.Sprintf("%.4f (%s/%s)", r.Value(), trimFloat(r.Num), trimFloat(r.Base))
}

// trimFloat prints integral counts without decimals and anything else with
// enough digits to be read back.
func trimFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

// metric is one reported figure: its value, unit, and the sample count or
// base it rests on, rendered in the human-readable report.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Note says what the value was measured over ("n=5000 bursts",
	// "base 3000 windows", ...).
	Note string
	// TextOnly metrics are printed in the report but left out of the
	// result line, which carries exactly the metrics BENCHMARK.json names.
	TextOnly bool
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	list []metric
}

func (s *metricSet) add(name string, value float64, unit, note string) {
	s.list = append(s.list, metric{Name: name, Value: value, Unit: unit, Note: note})
}

// addRatio adds a ratio metric whose note carries its base.
func (s *metricSet) addRatio(name string, r ratio, what string) {
	s.add(name, r.Value(), "ratio", fmt.Sprintf("%s %s", what, r))
}

// table renders the metrics as aligned "name value unit  [note]" lines.
func (s *metricSet) table(indent string) string {
	var b strings.Builder
	w := 0
	for _, m := range s.list {
		w = max(w, len(m.Name))
	}
	for _, m := range s.list {
		fmt.Fprintf(&b, "%s%-*s %14.6g %-8s %s\n", indent, w, m.Name, m.Value, m.Unit, m.Note)
	}
	return b.String()
}
