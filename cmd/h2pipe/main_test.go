package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/soc"
)

func TestRunDefault(t *testing.T) {
	if err := run(context.Background(), []string{"-models", "ResNet50,SqueezeNet", "-plan=false", "-gantt", "0"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunListModels(t *testing.T) {
	if err := run(context.Background(), []string{"-list-models"}); err != nil {
		t.Fatalf("run -list-models: %v", err)
	}
}

func TestRunCompare(t *testing.T) {
	if err := run(context.Background(), []string{"-compare", "-models", "ResNet50,BERT"}); err != nil {
		t.Fatalf("run -compare: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-soc", "NoSuchChip"},
		{"-models", "NoSuchNet"},
		{"-soc-json", "/nonexistent/path.json"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v): nil error", args)
		}
	}
}

func TestRunArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	htmlPath := filepath.Join(dir, "report.html")
	err := run(context.Background(), []string{"-models", "ResNet50,SqueezeNet", "-plan=false", "-gantt", "0",
		"-trace", tracePath, "-html", htmlPath})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(traceData, &events); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatalf("html not written: %v", err)
	}
	if !strings.Contains(string(html), "<svg") {
		t.Error("html report missing SVG")
	}
}

func TestRunCustomSoCJSON(t *testing.T) {
	dir := t.TempDir()
	custom := soc.Kirin990()
	custom.Name = "FileChip"
	data, err := json.Marshal(custom)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "soc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-soc-json", path, "-models", "SqueezeNet", "-plan=false", "-gantt", "0"}); err != nil {
		t.Fatalf("run with custom SoC: %v", err)
	}
}

func TestRunStreamDegraded(t *testing.T) {
	err := run(context.Background(), []string{"-stream",
		"-models", "ResNet50,SqueezeNet,GoogLeNet",
		"-gap", "2ms", "-events", "offline:npu@3ms,throttle:gpu@6ms:1.5"})
	if err != nil {
		t.Fatalf("run -stream: %v", err)
	}
	if err := run(context.Background(), []string{"-stream", "-events", "bogus@spec"}); err == nil {
		t.Error("malformed -events accepted")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed. The reader drains concurrently so large output cannot fill the
// pipe buffer and deadlock the writer.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("run: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// TestObsRunOfflineReport: -report in one-shot mode prints a JSON run
// report as the first stdout value, and -metrics dumps Prometheus text.
func TestObsRunOfflineReport(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.prom")
	out := captureStdout(t, func() error {
		return run(context.Background(), []string{"-models", "ResNet50,SqueezeNet",
			"-plan=false", "-gantt", "0", "-report", "-metrics", metricsPath})
	})
	var rep obs.RunReport
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&rep); err != nil {
		t.Fatalf("-report output does not start with a JSON report: %v\noutput:\n%s", err, out)
	}
	if rep.Requests != 2 || rep.Completed != 2 {
		t.Errorf("report requests/completed = %d/%d, want 2/2", rep.Requests, rep.Completed)
	}
	if rep.SoC != "Kirin990" {
		t.Errorf("report SoC = %q", rep.SoC)
	}
	if rep.MakespanMS <= 0 || rep.Executor.Slices == 0 || rep.Planner.CacheMisses == 0 {
		t.Errorf("report missing figures: %+v", rep)
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics not written: %v", err)
	}
	for _, want := range []string{"# TYPE", "h2pipe_executor_slices_total", "h2pipe_planner_cache_misses_total"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestObsRunStreamReportTrace: stream mode wires -report, -metrics and
// -trace (the span-sourced Chrome trace with interrupted segments) together.
func TestObsRunStreamReportTrace(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "stream-trace.json")
	metricsPath := filepath.Join(dir, "metrics.prom")
	out := captureStdout(t, func() error {
		return run(context.Background(), []string{"-stream",
			"-models", "ResNet50,SqueezeNet,GoogLeNet",
			"-gap", "2ms", "-events", "offline:npu@3ms",
			"-report", "-trace", tracePath, "-metrics", metricsPath})
	})
	var rep obs.RunReport
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&rep); err != nil {
		t.Fatalf("-report output does not start with a JSON report: %v\noutput:\n%s", err, out)
	}
	if rep.Stream.Windows == 0 || len(rep.Windows) != rep.Stream.Windows {
		t.Errorf("report windows: %d flat vs %d rows", rep.Stream.Windows, len(rep.Windows))
	}
	if rep.Stream.EventsApplied == 0 {
		t.Error("degraded stream report shows no events applied")
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("stream trace not written: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(traceData, &events); err != nil {
		t.Fatalf("stream trace not JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("stream trace is empty")
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics not written: %v", err)
	}
	if !strings.Contains(string(prom), "h2pipe_stream_windows_total") {
		t.Error("metrics output missing stream counters")
	}
}

// TestObsStreamTraceGolden: `-stream -trace FILE` under the default flags
// writes the pinned Chrome trace byte for byte.
func TestObsStreamTraceGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream-trace.json")
	captureStdout(t, func() error {
		return run(context.Background(), []string{"-stream", "-trace", path})
	})
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stream_trace_default.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-stream -trace output differs from the golden:\n%s", got)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-models", "ResNet50", "-plan=false", "-gantt", "0"}); err == nil {
		t.Error("cancelled context did not abort the run")
	}
	if err := run(ctx, []string{"-stream", "-models", "ResNet50"}); err == nil {
		t.Error("cancelled context did not abort the stream run")
	}
}

func TestRunFleet(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "fleet-metrics.prom")
	err := run(context.Background(), []string{
		"-stream", "-fleet", "3", "-policy", "affinity",
		"-models", "ResNet50,SqueezeNet,GoogLeNet,MobileNetV2",
		"-gap", "2ms", "-window", "3", "-plan-cache", "8",
		"-metrics", metricsPath,
	})
	if err != nil {
		t.Fatalf("run -stream -fleet 3: %v", err)
	}
	prom, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics not written: %v", err)
	}
	for _, series := range []string{
		"h2pipe_fleet_requests_total",
		"h2pipe_fleet_devices 3",
		`h2pipe_fleet_routed_total{device="dev0"}`,
		`h2pipe_stream_windows_total{device="`,
	} {
		if !strings.Contains(string(prom), series) {
			t.Errorf("fleet metrics output missing %q", series)
		}
	}
}

func TestRunFleetErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-fleet", "2"}); err == nil {
		t.Error("-fleet without -stream: nil error")
	}
	if err := run(context.Background(), []string{"-stream", "-fleet", "2", "-policy", "nope"}); err == nil {
		t.Error("unknown -policy: nil error")
	}
}
