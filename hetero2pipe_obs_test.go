package hetero2pipe_test

import (
	"encoding/json"
	"strings"
	"testing"

	"hetero2pipe"

	"hetero2pipe/internal/model"
)

// TestObsFacadeWithMetrics: one WithMetrics registry feeds all three layers
// through both the offline and the streaming entry points, and exports in
// Prometheus text format.
func TestObsFacadeWithMetrics(t *testing.T) {
	reg := hetero2pipe.NewMetricsRegistry("h2pipe")
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("ResNet50", "SqueezeNet"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["planner_plans_total"] == 0 {
		t.Error("offline run recorded no plans")
	}
	if snap.Counters["executor_slices_total"] == 0 {
		t.Error("offline run recorded no executor slices")
	}

	res, err := sys.RunStream(burst(t, model.ResNet50, model.SqueezeNet, model.GoogLeNet),
		hetero2pipe.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("stream result carries no run report")
	}
	snap = reg.Snapshot()
	if got := snap.Counters["stream_windows_total"]; got != uint64(res.Windows) {
		t.Errorf("stream_windows_total = %d, want %d", got, res.Windows)
	}
	if snap.Histograms["stream_sojourn_seconds"].Count != 3 {
		t.Errorf("sojourn observations = %d, want 3",
			snap.Histograms["stream_sojourn_seconds"].Count)
	}

	var sb strings.Builder
	if err := hetero2pipe.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE", "h2pipe_planner_plans_total", "h2pipe_stream_windows_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

// TestObsFacadeStreamTrace: a stream run under WithSpans renders via
// StreamChromeTraceFromSpans; an empty or overflowing ring is an error.
func TestObsFacadeStreamTrace(t *testing.T) {
	rec := hetero2pipe.NewSpanRecorder(0)
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithSpans(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunStream(burst(t, model.ResNet50, model.SqueezeNet), hetero2pipe.DefaultStreamConfig()); err != nil {
		t.Fatal(err)
	}
	raw, err := hetero2pipe.StreamChromeTraceFromSpans(rec)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	slices := 0
	for _, e := range events {
		if e["ph"] == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Error("trace has no slice events")
	}

	// Without a traced run, there is nothing to render.
	if _, err := hetero2pipe.StreamChromeTraceFromSpans(hetero2pipe.NewSpanRecorder(0)); err == nil {
		t.Error("StreamChromeTraceFromSpans accepted an empty recorder")
	}
	// A ring too small for the run must not yield a partial trace.
	small := hetero2pipe.NewSpanRecorder(4)
	sys2, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithSpans(small))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.RunStream(burst(t, model.ResNet50, model.SqueezeNet), hetero2pipe.DefaultStreamConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := hetero2pipe.StreamChromeTraceFromSpans(small); err == nil {
		t.Error("StreamChromeTraceFromSpans rendered a run its ring overwrote")
	}
}
