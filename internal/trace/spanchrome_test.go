package trace

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
	"hetero2pipe/internal/workload"
)

// recordedStreamRun executes one stream run of the named models, arriving
// gap apart, on a fresh Kirin990 planner with rec armed, so the span ring
// describes the run.
func recordedStreamRun(t *testing.T, cfg stream.Config, rec *obs.SpanRecorder, gap time.Duration, names ...string) *stream.Result {
	t.Helper()
	models, err := workload.Instantiate(names)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]stream.Request, len(models))
	for i, m := range models {
		reqs[i] = stream.Request{Model: m, Arrival: time.Duration(i) * gap}
	}
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := stream.NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.ContextWithRecorder(context.Background(), rec)
	res, err := s.RunContext(ctx, reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tracedStreamRun executes the six-request ResNet50/GoogLeNet/BERT stream
// under the default config and the given degradation events, with a span
// recorder armed.
func tracedStreamRun(t *testing.T, events []soc.Event) (*stream.Result, *obs.SpanRecorder) {
	t.Helper()
	cfg := stream.DefaultConfig()
	cfg.Events = events
	rec := obs.NewSpanRecorder(0)
	res := recordedStreamRun(t, cfg, rec, 0,
		model.ResNet50, model.GoogLeNet, model.BERT,
		model.ResNet50, model.GoogLeNet, model.BERT)
	return res, rec
}

// interruptedTracedRun is tracedStreamRun with the NPU going offline a third
// of the way into the first window, so that window is interrupted and
// replanned.
func interruptedTracedRun(t *testing.T) (*stream.Result, *obs.SpanRecorder) {
	t.Helper()
	base, _ := tracedStreamRun(t, nil)
	res, rec := tracedStreamRun(t, []soc.Event{
		{Kind: soc.EventProcessorOffline, Processor: "npu", At: base.WindowStats[0].End / 3},
	})
	if res.Replans == 0 {
		t.Fatal("degraded scenario produced no interrupts; the test exercises nothing")
	}
	return res, rec
}

// checkGolden compares a span-sourced trace with a golden file byte for
// byte. The goldens were rendered from the same runs by the retired
// exporter that read executor results kept on the stream Result, so they
// pin the span path to its output.
func checkGolden(t *testing.T, rec *obs.SpanRecorder, golden string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamChromeFromSpans(rec.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("span-sourced trace differs from %s:\ngot:\n%s\nwant:\n%s", golden, clip(got), clip(want))
	}
}

// TestSpanChromeMatchesStreamChrome: the Chrome trace reconstructed from the
// span ring of a clean run equals the recorded golden byte for byte.
func TestSpanChromeMatchesStreamChrome(t *testing.T) {
	_, rec := tracedStreamRun(t, nil)
	checkGolden(t, rec, "testdata/stream_clean.golden.json")
}

// TestSpanChromeMatchesStreamChromeInterrupted repeats the golden check on
// a degraded run whose first window is interrupted, exercising the
// discarded-segment clipping and the per-track interrupt instants.
func TestSpanChromeMatchesStreamChromeInterrupted(t *testing.T) {
	_, rec := interruptedTracedRun(t)
	checkGolden(t, rec, "testdata/stream_interrupted.golden.json")
}

// threeWindowConfig splits the six-request stream into three windows of two
// unbatched requests.
func threeWindowConfig() stream.Config {
	cfg := stream.DefaultConfig()
	cfg.MaxWindow = 2
	cfg.MaxBatch = 1
	return cfg
}

var threeWindowModels = []string{
	model.ResNet50, model.SqueezeNet, model.ResNet50,
	model.SqueezeNet, model.ResNet50, model.SqueezeNet,
}

// TestSpanChromeSmallRingErrors: a ring too small for the run keeps the
// root and the last windows but overwrites the first window's slices. The
// converter must report that instead of returning a trace with slices
// missing.
func TestSpanChromeSmallRingErrors(t *testing.T) {
	rec := obs.NewSpanRecorder(18)
	res := recordedStreamRun(t, threeWindowConfig(), rec, 0, threeWindowModels...)
	if res.Windows != 3 {
		t.Fatalf("windows = %d, want 3", res.Windows)
	}
	if rec.Total() <= uint64(rec.Capacity()) {
		t.Fatalf("recorded %d spans into a ring of %d: nothing was overwritten", rec.Total(), rec.Capacity())
	}
	if raw, err := StreamChromeFromSpans(rec.Spans()); err == nil {
		t.Fatalf("overwritten run rendered without error:\n%s", clip(raw))
	}
}

// TestSpanChromeTruncatedSuffixes: every tail of a run's spans that still
// holds the stream_run root — what a ring of that size would keep — either
// renders the full run's trace exactly or returns an error. A partial trace
// with a nil error is never acceptable.
func TestSpanChromeTruncatedSuffixes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  stream.Config
	}{
		{"three-windows", threeWindowConfig()},
		{"interrupted", func() stream.Config {
			cfg := threeWindowConfig()
			cfg.Events = []soc.Event{{Kind: soc.EventProcessorOffline, Processor: "npu", At: 1}}
			return cfg
		}()},
		// Every processor goes offline inside the first window: the
		// second window never executes and the run halts.
		{"halted", func() stream.Config {
			cfg := threeWindowConfig()
			cfg.HaltInfeasible = true
			cfg.MaxRetries = 1
			for _, p := range soc.Kirin990().Processors {
				cfg.Events = append(cfg.Events, soc.Event{Kind: soc.EventProcessorOffline, Processor: p.ID, At: 1})
			}
			return cfg
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewSpanRecorder(0)
			res := recordedStreamRun(t, tc.cfg, rec, 0, threeWindowModels...)
			if tc.cfg.HaltInfeasible && !res.Halted {
				t.Fatal("scenario did not halt")
			}
			spans := rec.Spans()
			full, err := StreamChromeFromSpans(spans)
			if err != nil {
				t.Fatal(err)
			}
			errs := 0
			for cut := 1; cut < len(spans); cut++ {
				got, err := StreamChromeFromSpans(spans[cut:])
				if err != nil {
					errs++
					continue
				}
				if !bytes.Equal(got, full) {
					t.Fatalf("spans[%d:] of %d rendered a partial trace with a nil error:\n%s", cut, len(spans), clip(got))
				}
			}
			if errs == 0 {
				t.Error("no truncation was detected; the sweep exercises nothing")
			}
		})
	}
}

// TestSpanTreeStructure pins the span hierarchy the converter (and any
// OTLP consumer) relies on: every slice span is the child of an execute
// span, every execute span the child of exactly one window span, and
// every window span the child of the single stream_run root — so each
// slice descends from exactly one window.
func TestSpanTreeStructure(t *testing.T) {
	res, rec := tracedStreamRun(t, nil)
	spans := rec.Spans()
	byID := make(map[uint64]obs.SpanData, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var rootID uint64
	windows := 0
	for _, s := range spans {
		switch s.Name {
		case "stream_run":
			if s.Parent != 0 {
				t.Errorf("stream_run span %d has parent %d, want root", s.ID, s.Parent)
			}
			if rootID != 0 {
				t.Fatalf("more than one stream_run span in a single-run recorder")
			}
			rootID = s.ID
		case "window":
			windows++
		}
	}
	if rootID == 0 {
		t.Fatal("no stream_run root span recorded")
	}
	if windows != res.Windows {
		t.Errorf("recorded %d window spans, result has %d windows", windows, res.Windows)
	}
	slices := 0
	for _, s := range spans {
		if s.Name != "slice" {
			continue
		}
		slices++
		exec, ok := byID[s.Parent]
		if !ok || exec.Name != "execute" {
			t.Fatalf("slice span %d: parent %d is %q, want an execute span", s.ID, s.Parent, exec.Name)
		}
		win, ok := byID[exec.Parent]
		if !ok || win.Name != "window" {
			t.Fatalf("slice span %d: grandparent %d is %q, want a window span", s.ID, exec.Parent, win.Name)
		}
		if win.Parent != rootID {
			t.Errorf("window span %d hangs off %d, want the stream_run root %d", win.ID, win.Parent, rootID)
		}
	}
	if want := res.Report.Executor.Slices; slices != want {
		t.Errorf("recorded %d slice spans, executed timelines hold %d slices", slices, want)
	}
}

// clip bounds failure output.
func clip(b []byte) []byte {
	if len(b) > 2000 {
		return append(append([]byte(nil), b[:2000]...), []byte("...")...)
	}
	return b
}
