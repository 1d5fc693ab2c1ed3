package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"hetero2pipe/internal/obs"
)

// Stream-run Chrome-trace export, reconstructed from the span ring: every
// executed planning window rendered on absolute virtual time, one track per
// processor. Interrupted windows appear as distinct segments — committed
// slices carry the window index and status "completed", while work
// discarded at the interrupt is clipped to the interrupt instant, renamed
// with a "(discarded)" suffix and marked status "discarded", so a replanned
// window is visually separate from the aborted attempt it replaces. Each
// interrupt additionally emits an instant ("i") event on every track at the
// cut point.
//
// The reconstruction walks the span tree the instrumented runtime emits:
// one stream_run root (procs attr = comma-joined processor IDs), window
// spans beneath it (window, vt_start, vt_end, interrupted, interrupt_at
// attrs), one execute span per executed window (slices attr = the executed
// slice count), and slice spans beneath that (request, stage, model,
// layers_from/to, slowdown and window-relative vt_start/vt_end attrs).
// Request completions are recovered as the maximum slice vt_end per
// request, which matches pipeline.Result.Completions because the executor
// finishes a request exactly when its last slice ends.

// spanSlice is one executor slice recovered from a slice span.
type spanSlice struct {
	request, stage int
	model          string
	from, to       int
	slowdown       float64
	start, end     time.Duration // window-relative virtual times
}

// spanWindow is one planning window recovered from a window span.
type spanWindow struct {
	idx         int
	start       time.Duration
	interrupted bool
	interruptAt time.Duration
	// execSlices is the execute span's slices attribute: 0 for a window that
	// never executed (no vt_start), -1 for one whose execute span is gone.
	execSlices int
	slices     []spanSlice
}

// StreamChromeFromSpans renders a traced stream run as trace-event JSON.
// Spans from the most recent stream_run root in the slice are used; spans
// of other runs sharing the recorder are ignored. A run whose spans the
// ring partly overwrote — window indices under the root not contiguous from
// 0, or an executed window missing slice spans its execute span counted —
// is an error rather than a partial trace.
func StreamChromeFromSpans(spans []obs.SpanData) ([]byte, error) {
	// The recorder snapshot is oldest-first: the last stream_run root is the
	// most recent run.
	var root *obs.SpanData
	for i := range spans {
		if spans[i].Name == "stream_run" && spans[i].Parent == 0 {
			root = &spans[i]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("trace: no stream_run span (run with a SpanRecorder armed)")
	}
	procsAttr, ok := root.Attr("procs")
	if !ok {
		return nil, fmt.Errorf("trace: stream_run span missing procs attribute")
	}
	procs := strings.Split(procsAttr.AsString(), ",")

	// First pass: window spans under the root, and the execute→window
	// parent mapping slice spans hang off.
	windows := map[uint64]*spanWindow{} // window span id → window
	execOf := map[uint64]uint64{}       // execute span id → window span id
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "window":
			if s.Parent != root.ID {
				continue
			}
			w := &spanWindow{interruptAt: -1}
			if a, ok := s.Attr("window"); ok {
				w.idx = int(a.AsInt())
			}
			if a, ok := s.Attr("vt_start"); ok {
				w.start = a.AsDuration()
				w.execSlices = -1
			}
			if a, ok := s.Attr("interrupted"); ok {
				w.interrupted = a.AsInt() != 0
			}
			if a, ok := s.Attr("interrupt_at"); ok {
				w.interruptAt = a.AsDuration()
			}
			windows[s.ID] = w
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != "execute" {
			continue
		}
		if w, ok := windows[s.Parent]; ok {
			execOf[s.ID] = s.Parent
			if a, ok := s.Attr("slices"); ok {
				w.execSlices = int(a.AsInt())
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != "slice" {
			continue
		}
		wid, ok := execOf[s.Parent]
		if !ok {
			continue
		}
		w := windows[wid]
		sl := spanSlice{}
		if a, ok := s.Attr("request"); ok {
			sl.request = int(a.AsInt())
		}
		if a, ok := s.Attr("stage"); ok {
			sl.stage = int(a.AsInt())
		}
		if a, ok := s.Attr("model"); ok {
			sl.model = a.AsString()
		}
		if a, ok := s.Attr("layers_from"); ok {
			sl.from = int(a.AsInt())
		}
		if a, ok := s.Attr("layers_to"); ok {
			sl.to = int(a.AsInt())
		}
		if a, ok := s.Attr("slowdown"); ok {
			sl.slowdown = a.AsFloat()
		}
		if a, ok := s.Attr("vt_start"); ok {
			sl.start = a.AsDuration()
		}
		if a, ok := s.Attr("vt_end"); ok {
			sl.end = a.AsDuration()
		}
		w.slices = append(w.slices, sl)
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("trace: stream_run span has no window spans")
	}

	ordered := make([]*spanWindow, 0, len(windows))
	for _, w := range windows {
		ordered = append(ordered, w)
	}
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].idx < ordered[b].idx })
	for i, w := range ordered {
		if w.idx != i {
			return nil, fmt.Errorf("trace: span ring overwrote part of the stream run: window %d where %d was expected", w.idx, i)
		}
		if len(w.slices) != w.execSlices {
			return nil, fmt.Errorf("trace: span ring overwrote part of the stream run: window %d has %d slice spans, its execute span recorded %d", w.idx, len(w.slices), w.execSlices)
		}
	}

	events := make([]chromeEvent, 0, len(ordered)*8)
	for k, id := range procs {
		events = append(events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   k,
			Args:  map[string]string{"name": id},
		})
	}

	for _, w := range ordered {
		// The executor sorts its timeline by (start, stage); slice spans are
		// recorded in completion order, so re-sort. The key is unique: a
		// processor runs one slice at a time.
		sort.Slice(w.slices, func(a, b int) bool {
			if w.slices[a].start != w.slices[b].start {
				return w.slices[a].start < w.slices[b].start
			}
			return w.slices[a].stage < w.slices[b].stage
		})
		// completions[r] = the request's last slice end, window-relative.
		completions := map[int]time.Duration{}
		for _, sl := range w.slices {
			if sl.end > completions[sl.request] {
				completions[sl.request] = sl.end
			}
		}
		committed := func(r int) bool {
			if !w.interrupted {
				return true
			}
			return w.start+completions[r] <= w.interruptAt
		}
		for _, sl := range w.slices {
			start := w.start + sl.start
			end := w.start + sl.end
			name := sl.model
			status := "completed"
			if !committed(sl.request) {
				status = "discarded"
				name += " (discarded)"
				if start >= w.interruptAt {
					continue
				}
				if end > w.interruptAt {
					end = w.interruptAt
				}
			}
			events = append(events, chromeEvent{
				Name:      name,
				Phase:     "X",
				TsMicros:  micros(start),
				DurMicros: micros(end - start),
				PID:       1,
				TID:       sl.stage,
				Args: map[string]string{
					"window":   fmt.Sprintf("%d", w.idx),
					"request":  fmt.Sprintf("%d", sl.request),
					"layers":   fmt.Sprintf("[%d,%d]", sl.from, sl.to),
					"slowdown": fmt.Sprintf("%.3f", sl.slowdown),
					"status":   status,
				},
			})
		}
		if w.interrupted {
			for k := range procs {
				events = append(events, chromeEvent{
					Name:     "interrupt",
					Phase:    "i",
					TsMicros: micros(w.interruptAt),
					PID:      1,
					TID:      k,
					Args:     map[string]string{"window": fmt.Sprintf("%d", w.idx)},
				})
			}
		}
	}
	return json.MarshalIndent(events, "", "  ")
}

// micros converts a duration to fractional microseconds, the trace format's
// time unit. Fractional precision keeps sub-microsecond slices visible.
func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}
