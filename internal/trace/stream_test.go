package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// chromeEventView mirrors the emitted JSON shape for assertions.
type chromeEventView struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	Ts    float64           `json:"ts"`
	Dur   float64           `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args"`
}

// spanChromeEvents renders rec's stream run from spans and decodes it.
func spanChromeEvents(t *testing.T, rec *obs.SpanRecorder) []chromeEventView {
	t.Helper()
	raw, err := StreamChromeFromSpans(rec.Spans())
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEventView
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("output is not valid trace-event JSON: %v", err)
	}
	return events
}

func TestObsStreamChrome(t *testing.T) {
	res, rec := interruptedTracedRun(t)
	events := spanChromeEvents(t, rec)

	var meta, slices, discarded, instants int
	windowsSeen := map[string]bool{}
	var interruptUS float64
	for _, ws := range res.WindowStats {
		if ws.Interrupted {
			interruptUS = float64(ws.End.Nanoseconds()) / 1e3
			break
		}
	}
	for _, e := range events {
		switch e.Phase {
		case "M":
			meta++
		case "i":
			instants++
			if e.Ts != interruptUS {
				t.Errorf("instant event at %v µs, want interrupt at %v µs", e.Ts, interruptUS)
			}
		case "X":
			slices++
			if e.Dur < 0 {
				t.Errorf("negative duration slice %+v", e)
			}
			windowsSeen[e.Args["window"]] = true
			if e.Args["status"] == "discarded" {
				discarded++
				if !strings.HasSuffix(e.Name, "(discarded)") {
					t.Errorf("discarded slice not suffixed: %q", e.Name)
				}
				if e.Ts+e.Dur > interruptUS+0.001 {
					t.Errorf("discarded slice extends past interrupt: ends %v > %v", e.Ts+e.Dur, interruptUS)
				}
			}
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	if meta != soc.Kirin990().NumProcessors() {
		t.Errorf("thread_name metadata events = %d, want %d", meta, soc.Kirin990().NumProcessors())
	}
	if slices == 0 {
		t.Fatal("no slice events emitted")
	}
	if discarded == 0 {
		t.Error("interrupted run emitted no discarded segments")
	}
	if instants == 0 {
		t.Error("no interrupt instant events emitted")
	}
	// Interrupted windows must render as distinct track segments: slices
	// tagged with more than one window index.
	if len(windowsSeen) < 2 {
		t.Errorf("slices span %d window(s), want ≥ 2 (replanned window separate)", len(windowsSeen))
	}
}

// TestObsStreamChromeEmpty: spans without a stream_run root — none at all,
// or only another kind of root — are an error, not an empty trace.
func TestObsStreamChromeEmpty(t *testing.T) {
	if _, err := StreamChromeFromSpans(nil); err == nil {
		t.Error("empty span list accepted")
	}
	rec := obs.NewSpanRecorder(0)
	_, sp := obs.StartSpan(obs.ContextWithRecorder(t.Context(), rec), "fleet_run")
	sp.End()
	if _, err := StreamChromeFromSpans(rec.Spans()); err == nil {
		t.Error("span list without a stream_run root accepted")
	}
}

// TestObsStreamChromeUninterrupted: a clean run emits only completed
// segments and no instants.
func TestObsStreamChromeUninterrupted(t *testing.T) {
	rec := obs.NewSpanRecorder(0)
	recordedStreamRun(t, stream.DefaultConfig(), rec, time.Millisecond, model.ResNet50, model.SqueezeNet)
	for _, e := range spanChromeEvents(t, rec) {
		if e.Phase == "i" {
			t.Errorf("uninterrupted run emitted instant event %+v", e)
		}
		if e.Args["status"] == "discarded" {
			t.Errorf("uninterrupted run emitted discarded slice %+v", e)
		}
	}
}
