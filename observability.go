package hetero2pipe

import (
	"context"
	"io"
	"net"
	"net/http"

	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/obs/server"
	"hetero2pipe/internal/stream"
	"hetero2pipe/internal/trace"
)

// This file is the observability facade: span tracing re-exports and the
// live HTTP server. Metrics re-exports live in hetero2pipe.go next to the
// run API; everything here is additive and optional — a System without
// WithMetrics/WithSpans serves probes and pprof but 404s the data
// endpoints.

// SpanRecorder re-exports the lock-free bounded span ring. Attach one with
// WithSpans; read it with Spans/WriteOTLP/StreamChromeTraceFromSpans or
// serve it from the observability server's /spans endpoint.
type SpanRecorder = obs.SpanRecorder

// SpanData re-exports one finished span as stored in the recorder ring.
type SpanData = obs.SpanData

// NewSpanRecorder creates a span recorder whose ring retains the last
// capacity finished spans (capacity ≤ 0 selects obs.DefaultSpanCapacity,
// 65536 — several full stream runs of slice spans).
func NewSpanRecorder(capacity int) *SpanRecorder { return obs.NewSpanRecorder(capacity) }

// WriteOTLP writes the recorder's spans as an OTLP/JSON trace document
// (resourceSpans → scopeSpans → spans), importable by any OpenTelemetry
// pipeline or by Jaeger's JSON upload.
func WriteOTLP(w io.Writer, rec *SpanRecorder, service string) error {
	return obs.WriteOTLP(w, rec, service)
}

// StreamChromeTraceFromSpans converts the most recent stream run traced
// into rec (WithSpans) into Chrome trace-event JSON, with interrupted and
// replanned windows shown as distinct segments. A run the ring was too
// small to hold whole is an error, not a partial trace.
func StreamChromeTraceFromSpans(rec *SpanRecorder) ([]byte, error) {
	return trace.StreamChromeFromSpans(rec.Spans())
}

// TraceID re-exports the per-request distributed trace identifier
// (WithRequestTracing): stable across interrupts, requeues and fleet
// failover, rendered as 16 hex digits.
type TraceID = stream.TraceID

// NewTraceID derives the deterministic trace ID for the request at the
// given fleet-wide index — what tracing assigns to requests whose Trace
// field is zero.
func NewTraceID(index int) TraceID { return stream.NewTraceID(index) }

// ParseTraceID parses a 16-hex-digit trace ID (the /requests?trace= form).
func ParseTraceID(s string) (TraceID, error) { return stream.ParseTraceID(s) }

// RequestTimeline re-exports one request's lifecycle record: trace ID,
// phase events on the virtual clock and the sojourn decomposition. Found on
// StreamResult.Timelines, FleetResult.Timelines and in RequestTraces.
type RequestTimeline = stream.RequestTimeline

// RequestPhaseEvent re-exports one lifecycle transition of a timeline.
type RequestPhaseEvent = stream.PhaseEvent

// SojournBreakdown re-exports the sojourn decomposition: queue wait,
// backoff, interrupt loss, exec and handoff transit (virtual clock, summing
// exactly to the sojourn) plus attributed plan wall time.
type SojournBreakdown = stream.Breakdown

// RequestTraceStore re-exports the bounded flight recorder of completed
// request timelines behind the /requests endpoint.
type RequestTraceStore = stream.TraceStore

// RequestTraces returns the system's flight-recorder store, or nil when the
// system was built without WithRequestTracing.
func (sys *System) RequestTraces() *RequestTraceStore { return sys.cfg.stream.Traces }

// SLOMonitor re-exports the per-class error-budget monitor (WithSLOBudget):
// lifetime miss fractions, windowed burn rates and remaining budget per SLO
// class, served by the /slo endpoint.
type SLOMonitor = obs.SLOMonitor

// SLOReport re-exports the monitor's snapshot (the /slo payload);
// SLOClassReport is one class's row.
type SLOReport = obs.SLOReport

// SLOClassReport re-exports one class's budget/burn-rate row.
type SLOClassReport = obs.SLOClassReport

// DecompositionReport re-exports the run-level sojourn-decomposition
// roll-up populated on RunReport and FleetReport under request tracing.
type DecompositionReport = obs.DecompositionReport

// SLOBudgets returns the system's SLO monitor, or nil when the system was
// built without WithSLOBudget.
func (sys *System) SLOBudgets() *SLOMonitor { return sys.cfg.stream.SLOMonitor }

// ObsHandler returns the system's observability HTTP handler:
//
//	/metrics        Prometheus text exposition (WithMetrics)
//	/vars           expvar JSON (PublishExpvar payloads included)
//	/debug/pprof/   pprof index and profiles
//	/healthz        liveness (always 200)
//	/readyz         200 while a stream run accepts admissions, else 503
//	/windows        live WindowStats of the in-flight run; ?sse=1 streams
//	                them as Server-Sent Events
//	/spans          the span ring as OTLP/JSON (WithSpans)
//	/fleet          live fleet status: per-device assignment, completion
//	                and handoff counts (WithFleet)
//	/requests       request timelines (WithRequestTracing): recent by
//	                default (?n= caps), one by ?trace=ID, the worst
//	                sojourns by ?worst=N, or live SSE with ?sse=1
//	/slo            per-class error budgets and burn rates (WithSLOBudget)
//
// Mount it on any mux or server; ServeObs runs a standalone one.
func (sys *System) ObsHandler() http.Handler {
	return server.Handler(sys.serverConfig())
}

// serverConfig assembles the obs server wiring shared by ObsHandler and
// ServeObs. The feed is device 0's window feed.
func (sys *System) serverConfig() server.Config {
	return server.Config{
		Metrics: sys.cfg.metrics,
		Spans:   sys.cfg.spans,
		Feed:    sys.dev.Feed(),
		Fleet:   sys.fl,
		Traces:  sys.cfg.stream.Traces,
		SLO:     sys.cfg.stream.SLOMonitor,
		Service: sys.dev.SoC().Name,
	}
}

// ServeObs serves ObsHandler on addr until ctx is cancelled, then shuts
// down gracefully. addr may be ":0"; onListen (optional) receives the
// bound address before serving starts.
func (sys *System) ServeObs(ctx context.Context, addr string, onListen func(net.Addr)) error {
	return server.Serve(ctx, addr, sys.serverConfig(), onListen)
}
