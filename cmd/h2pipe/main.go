// Command h2pipe plans and simulates a multi-DNN pipeline on a chosen SoC
// preset: it runs the Hetero²Pipe planner over the requested models, prints
// the resulting schedule, executes it under the co-execution slowdown model
// and reports latency, throughput and the speedup over serial CPU execution.
//
// Usage:
//
//	h2pipe -soc Kirin990 -models YOLOv4,BERT,SqueezeNet,ResNet50
//
// Online serving mode replays a Poisson arrival stream with per-window
// planning, optionally under injected degradation events:
//
//	h2pipe -stream -gap 10ms -events offline:npu@40ms,throttle:gpu@10ms:1.8
//
// Ctrl-C cancels a run cleanly (the planner and executor are
// context-aware); the partial state is discarded.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"hetero2pipe/internal/baseline"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/fleet"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/obs/server"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
	"hetero2pipe/internal/trace"
	"hetero2pipe/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "h2pipe:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("h2pipe", flag.ContinueOnError)
	var (
		socName    = fs.String("soc", "Kirin990", "SoC preset: Kirin990, Snapdragon778G, Snapdragon870")
		socJSON    = fs.String("soc-json", "", "load a custom SoC description from a JSON file (overrides -soc)")
		modelsFlag = fs.String("models", "YOLOv4,SqueezeNet,BERT,ResNet50", "comma-separated zoo model names")
		listModels = fs.Bool("list-models", false, "list zoo models and exit")
		noMit      = fs.Bool("no-mitigation", false, "disable contention mitigation")
		noSteal    = fs.Bool("no-worksteal", false, "disable work stealing")
		noTail     = fs.Bool("no-tailopt", false, "disable tail optimisation")
		showPlan   = fs.Bool("plan", true, "print the per-request stage assignment")
		ganttWidth = fs.Int("gantt", 72, "ASCII timeline width (0 disables)")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event JSON file of the execution")
		htmlOut    = fs.String("html", "", "write a standalone HTML report (SVG Gantt + metrics)")
		compare    = fs.Bool("compare", false, "run every scheme (MNN, Pipe-it, Band, No-C/T, H²P) and print a comparison table")
		streamMode = fs.Bool("stream", false, "online serving: Poisson arrivals with per-window planning")
		eventsFlag = fs.String("events", "", "degradation events kind[:proc]@at[:factor], comma-separated (e.g. offline:npu@40ms,throttle:gpu@10ms:1.8); applied on the stream clock, or immediately without -stream")
		gap        = fs.Duration("gap", 10*time.Millisecond, "mean inter-arrival gap in -stream mode")
		window     = fs.Int("window", 8, "max requests per planning window in -stream mode")
		fleetN     = fs.Int("fleet", 0, "shard the -stream run across N devices (device 0 is -soc, the rest cycle the mobile presets; 0 disables)")
		policyName = fs.String("policy", "hash", "fleet routing policy: hash, least-sojourn or affinity")
		planCache  = fs.Int("plan-cache", 0, "memoize up to N whole plans keyed by SoC state + window signature (0 disables); windows whose mix and SoC state recur skip the planner entirely")
		beamWidth  = fs.Int("beam", 0, "beam width: prune the candidate sweep to the N best-proxy orderings, escalating until within (1+beam-eps) of the exact makespan (0 = exact sweep)")
		beamEps    = fs.Float64("beam-eps", 0, "beam regret tolerance epsilon: escalation stops once the best plan is provably within (1+eps)x of the exact sweep's makespan")
		planDL     = fs.Duration("plan-deadline", 0, "wall-clock budget per window's candidate sweep; on expiry the best plan priced so far wins (voids determinism and the beam bound; 0 disarms)")
		objFlag    = fs.String("objective", "makespan", "planning objective: makespan (single min-latency plan) or frontier (Pareto frontier over makespan/throughput/energy/peak memory)")
		sloFlag    = fs.String("slo", "", "SLO class picking the frontier point under -objective frontier: latency-critical, balanced, battery-saver or custom:w,w,w,w (weights for makespan,throughput,energy,memory; default latency-critical)")
		report     = fs.Bool("report", false, "print a structured JSON run report on stdout")
		metricsOut = fs.String("metrics", "", "write the metrics registry in Prometheus text format to a file")
		serveAddr  = fs.String("serve", "", "serve live observability HTTP (/metrics, /vars, /debug/pprof, /healthz, /readyz, /windows, /spans) on this address; keeps serving after the run until Ctrl-C")
		logLevel   = fs.String("log-level", "", "structured logging to stderr at this level: debug, info, warn or error (empty disables)")
		spansOut   = fs.String("spans", "", "record a span trace of the run and write it as OTLP JSON to this file")
		reqTrace   = fs.String("request-trace", "", "arm per-request distributed tracing and write the request timelines (phase events + sojourn decomposition) as JSON to this file; also serves /requests under -serve")
		sloBudget  = fs.String("slo-budget", "", "SLO error budgets class=target, comma-separated (e.g. latency-critical=0.01,balanced=0.05); prints per-class burn rates after the run and serves /slo under -serve")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listModels {
		for _, n := range append(model.Names(), model.ExtraNames()...) {
			m := model.MustByName(n)
			fmt.Printf("%-12s %4d layers %8.2f GFLOPs %7.1f MB weights\n",
				n, m.NumLayers(), m.TotalFLOPs()/1e9, float64(m.TotalWeightBytes())/1e6)
		}
		return nil
	}
	var s *soc.SoC
	if *socJSON != "" {
		data, err := os.ReadFile(*socJSON)
		if err != nil {
			return err
		}
		s = new(soc.SoC)
		if err := json.Unmarshal(data, s); err != nil {
			return fmt.Errorf("parsing %s: %w", *socJSON, err)
		}
	} else {
		s = soc.PresetByName(*socName)
		if s == nil {
			return fmt.Errorf("unknown SoC preset %q", *socName)
		}
	}
	names := strings.Split(*modelsFlag, ",")
	models, err := workload.Instantiate(names)
	if err != nil {
		return err
	}

	if *compare {
		return runComparison(s, models)
	}

	events, err := soc.ParseEvents(*eventsFlag)
	if err != nil {
		return err
	}
	objective, err := core.ParseObjective(*objFlag)
	if err != nil {
		return err
	}
	slo, err := core.ParseSLOClass(*sloFlag)
	if err != nil {
		return err
	}

	opts := core.DefaultOptions()
	opts.Mitigation = !*noMit
	opts.WorkStealing = !*noSteal
	opts.TailOptimization = !*noTail
	opts.PlanCache = *planCache
	opts.BeamWidth = *beamWidth
	opts.BeamEpsilon = *beamEps
	opts.AnytimeDeadline = *planDL
	var reg *obs.Registry
	if *metricsOut != "" || *serveAddr != "" {
		reg = obs.NewRegistry("h2pipe")
		opts.Metrics = reg
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		return err
	}
	opts.Logger = logger
	var rec *obs.SpanRecorder
	if *spansOut != "" || *serveAddr != "" {
		rec = obs.NewSpanRecorder(0)
		ctx = obs.ContextWithRecorder(ctx, rec)
	}
	feed := stream.NewFeed(0)
	var traces *stream.TraceStore
	if *reqTrace != "" {
		traces = stream.NewTraceStore(0, 0)
	}
	budgets, err := parseSLOBudgets(*sloBudget)
	if err != nil {
		return err
	}
	var sloMon *obs.SLOMonitor
	if len(budgets) > 0 {
		sloMon = obs.NewSLOMonitor(0, budgets)
	}

	// Fleet mode builds its devices (and their feeds) before the server so
	// the /fleet endpoint and device-0 feed can be wired in.
	var fl *fleet.Fleet
	if *fleetN > 0 {
		if !*streamMode {
			return fmt.Errorf("-fleet requires -stream")
		}
		scfg := stream.DefaultConfig()
		scfg.MaxWindow = *window
		scfg.Events = events
		scfg.Objective = objective
		scfg.SLO = slo
		scfg.RequestTracing = traces != nil
		scfg.Traces = traces
		scfg.SLOMonitor = sloMon
		fl, err = buildFleet(s, *fleetN, *policyName, opts, scfg, reg, logger, rec)
		if err != nil {
			return err
		}
		feed = fl.Devices()[0].Feed()
	}

	// The observability server runs alongside the workload and keeps serving
	// after it completes, so the run's metrics, spans and windows stay
	// curl-able until the process is interrupted.
	srvDone := make(chan error, 1)
	waitServe := func() error { return nil }
	if *serveAddr != "" {
		go func() {
			srvDone <- server.Serve(ctx, *serveAddr, server.Config{
				Metrics: reg,
				Spans:   rec,
				Feed:    feed,
				Fleet:   fl,
				Traces:  traces,
				SLO:     sloMon,
				Service: s.Name,
			}, func(a net.Addr) {
				fmt.Printf("observability server on http://%s\n", a)
			})
		}()
		waitServe = func() error {
			fmt.Println("observability server still serving; Ctrl-C to exit")
			return <-srvDone
		}
	}

	if fl != nil {
		if err := runFleet(ctx, fl, models, *gap, streamOutputs{
			report:      *report,
			metricsOut:  *metricsOut,
			spansOut:    *spansOut,
			reqTraceOut: *reqTrace,
			registry:    reg,
			logger:      logger,
			spans:       rec,
			sloMon:      sloMon,
			service:     s.Name,
		}); err != nil {
			return err
		}
		return waitServe()
	}

	planner, err := core.NewPlanner(s, opts)
	if err != nil {
		return err
	}
	if *streamMode {
		if err := runStream(ctx, planner, models, events, *gap, *window, objective, slo, streamOutputs{
			report:      *report,
			metricsOut:  *metricsOut,
			traceOut:    *traceOut,
			spansOut:    *spansOut,
			reqTraceOut: *reqTrace,
			registry:    reg,
			logger:      logger,
			feed:        feed,
			spans:       rec,
			traces:      traces,
			sloMon:      sloMon,
			service:     s.Name,
		}); err != nil {
			return err
		}
		return waitServe()
	}
	// Without -stream, events apply immediately (their timestamps are
	// ignored): plan against the already-degraded SoC.
	for _, ev := range events {
		affected, err := s.Apply(ev)
		if err != nil {
			return err
		}
		planner.InvalidateProcessors(affected...)
		fmt.Printf("applied %v\n", ev)
	}
	planStart := time.Now()
	var plan *core.Plan
	if objective == core.ObjectiveFrontier {
		f, err := planner.PlanFrontierModelsContext(ctx, models)
		if err != nil {
			return err
		}
		pt := f.Select(slo)
		plan = pt.Plan
		printFrontier(f, pt, slo)
	} else {
		if plan, err = planner.PlanModelsContext(ctx, models); err != nil {
			return err
		}
	}
	planWall := time.Since(planStart)
	execOpts := pipeline.DefaultOptions()
	execOpts.Metrics = reg
	execOpts.Logger = logger
	res, err := pipeline.ExecuteContext(ctx, plan.Schedule, execOpts)
	if err != nil {
		return err
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, rec, s.Name); err != nil {
			return err
		}
	}

	if *report {
		rep := offlineReport(s, planner, res, planWall)
		raw, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			return err
		}
	}

	fmt.Printf("SoC: %s (%d processors)\n", s.Name, s.NumProcessors())
	if *showPlan {
		fmt.Println("\nplanned pipeline (requests in execution order):")
		for i := range plan.Schedule.Profiles {
			m := plan.Schedule.Profiles[i].Model()
			fmt.Printf("  %2d. %-12s [%s, intensity %.2f GB/s] stages:", i+1, m.Name,
				plan.Classes[i], plan.Intensities[i])
			for k := 0; k < plan.Schedule.NumStages(); k++ {
				r := plan.Schedule.Stages[i][k]
				if r.Empty() {
					continue
				}
				fmt.Printf(" %s=[%d..%d]", s.Processors[k].ID, r.From, r.To)
			}
			fmt.Println()
		}
		fmt.Println("\nexecution timeline (first 12 slices):")
		for j, e := range res.Timeline {
			if j >= 12 {
				fmt.Printf("  ... %d more\n", len(res.Timeline)-12)
				break
			}
			m := plan.Schedule.Profiles[e.Request].Model()
			fmt.Printf("  %-12s on %-9s %8.2fms → %8.2fms (slowdown %.2f×)\n",
				m.Name, s.Processors[e.Stage].ID,
				e.Start.Seconds()*1e3, e.End.Seconds()*1e3, e.Slowdown)
		}
	}

	// Serial MNN reference.
	profiles := plan.Schedule.Profiles
	serialSched, err := baseline.SerialMNN(s, profiles)
	if err != nil {
		return err
	}
	serial, err := pipeline.Execute(serialSched, pipeline.DefaultOptions())
	if err != nil {
		return err
	}

	if *ganttWidth > 0 {
		fmt.Println()
		fmt.Print(trace.Gantt(plan.Schedule, res, *ganttWidth))
	}

	fmt.Printf("\nlatency:            %8.2f ms\n", res.Makespan.Seconds()*1e3)
	fmt.Printf("throughput:         %8.2f inferences/s\n", res.Throughput())
	fmt.Printf("measured bubbles:   %8.2f ms\n", res.BubbleTime.Seconds()*1e3)
	fmt.Printf("peak memory:        %8.1f MB\n", float64(res.PeakMemoryBytes)/1e6)
	fmt.Printf("energy:             %8.2f J (%.2f J/inference)\n",
		res.EnergyJoules, res.EnergyPerInference())
	fmt.Printf("serial CPU latency: %8.2f ms  (speedup %.2f×, energy %.2f J)\n",
		serial.Makespan.Seconds()*1e3,
		serial.Makespan.Seconds()/res.Makespan.Seconds(),
		serial.EnergyJoules)

	if *traceOut != "" {
		data, err := trace.ChromeTrace(plan.Schedule, res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
	}
	if *htmlOut != "" {
		title := fmt.Sprintf("Hetero²Pipe on %s: %s", s.Name, *modelsFlag)
		page, err := trace.HTMLReport(title, plan.Schedule, res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*htmlOut, page, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote HTML report to %s\n", *htmlOut)
	}
	return waitServe()
}

// buildLogger maps a -log-level value to a text slog.Logger on stderr, or
// nil (logging disabled) for the empty string.
func buildLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// writeSpans dumps the span ring as an OTLP/JSON trace document.
func writeSpans(path string, rec *obs.SpanRecorder, service string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteOTLP(f, rec, service); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote OTLP spans to %s\n", path)
	return nil
}

// sloName renders the class governing frontier selection; the unset class
// falls back to latency-critical, matching Frontier.Select.
func sloName(slo core.SLOClass) string {
	if slo.Kind == core.SLOUnset {
		return core.SLOLatencyCritical.String()
	}
	return slo.String()
}

// printFrontier lists the Pareto frontier from -objective frontier, one line
// per non-dominated point, marking the point the -slo class selected.
func printFrontier(f *core.Frontier, selected *core.FrontierPoint, slo core.SLOClass) {
	fmt.Printf("Pareto frontier: %d non-dominated points\n", f.Size())
	for i := range f.Points {
		pt := &f.Points[i]
		mark := ""
		if selected != nil && pt.Candidate == selected.Candidate {
			mark = fmt.Sprintf("  ← selected (%s)", sloName(slo))
		}
		o := pt.Objective
		fmt.Printf("  %2d. makespan %8.2fms  throughput %6.2f req/s  energy %7.2fJ  peak %7.1fMB%s\n",
			i+1, o.Makespan.Seconds()*1e3, o.Throughput, o.EnergyJoules,
			float64(o.PeakMemoryBytes)/(1<<20), mark)
	}
}

// streamOutputs carries the observability outputs requested on the command
// line into runStream.
type streamOutputs struct {
	report      bool
	metricsOut  string
	traceOut    string
	spansOut    string
	reqTraceOut string
	registry    *obs.Registry
	logger      *slog.Logger
	feed        *stream.Feed
	spans       *obs.SpanRecorder
	traces      *stream.TraceStore
	sloMon      *obs.SLOMonitor
	service     string
}

// runStream replays the models as a Poisson arrival stream with per-window
// planning and prints the online/degradation statistics.
func runStream(ctx context.Context, planner *core.Planner, models []*model.Model, events []soc.Event, gap time.Duration, window int, objective core.ObjectiveMode, slo core.SLOClass, out streamOutputs) error {
	cfg := stream.DefaultConfig()
	cfg.MaxWindow = window
	cfg.Events = events
	cfg.Metrics = out.registry
	cfg.Logger = out.logger
	cfg.Feed = out.feed
	cfg.Objective = objective
	cfg.SLO = slo
	cfg.RequestTracing = out.traces != nil || out.reqTraceOut != ""
	cfg.Traces = out.traces
	cfg.SLOMonitor = out.sloMon
	cfg.DeviceName = out.service
	sched, err := stream.NewScheduler(planner, cfg)
	if err != nil {
		return err
	}
	// The Chrome trace is rendered from spans: arm a recorder unless -spans
	// or -serve already did. The default ring holds thousands of windows,
	// far more than one -stream run over the -models list plans.
	if out.traceOut != "" && out.spans == nil {
		out.spans = obs.NewSpanRecorder(0)
		ctx = obs.ContextWithRecorder(ctx, out.spans)
	}
	requests := stream.PoissonArrivals(models, gap, 7)
	execOpts := pipeline.DefaultOptions()
	execOpts.Logger = out.logger
	res, err := sched.RunContext(ctx, requests, execOpts)
	if err != nil {
		return err
	}
	if out.spansOut != "" {
		if err := writeSpans(out.spansOut, out.spans, out.service); err != nil {
			return err
		}
	}
	if out.report {
		raw, err := res.Report.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	if out.metricsOut != "" {
		if err := writeMetrics(out.metricsOut, out.registry); err != nil {
			return err
		}
	}
	if out.traceOut != "" {
		data, err := trace.StreamChromeFromSpans(out.spans.Spans())
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome stream trace to %s\n", out.traceOut)
	}
	if out.reqTraceOut != "" {
		if err := writeTimelines(out.reqTraceOut, res.Timelines); err != nil {
			return err
		}
	}
	fmt.Printf("online run: %d requests, mean gap %v\n", len(requests), gap)
	if objective == core.ObjectiveFrontier {
		fmt.Printf("objective:          frontier (default SLO %s)\n", sloName(slo))
	}
	fmt.Printf("makespan:           %8.2f ms\n", res.Makespan.Seconds()*1e3)
	fmt.Printf("mean sojourn:       %8.2f ms  (p95 %.2f ms)\n",
		res.MeanSojourn().Seconds()*1e3, res.P95Sojourn().Seconds()*1e3)
	fmt.Printf("planning windows:   %8d\n", res.Windows)
	fmt.Printf("cost cache:         %8d hits, %d misses\n", res.CacheHits, res.CacheMisses)
	if res.PlanCacheHits+res.PlanCacheMisses > 0 {
		fmt.Printf("plan cache:         %8d hits, %d misses\n", res.PlanCacheHits, res.PlanCacheMisses)
	}
	if len(events) > 0 {
		fmt.Printf("events applied:     %8d\n", res.EventsApplied)
		fmt.Printf("replans:            %8d  (%d requests requeued)\n", res.Replans, res.Retried)
		fmt.Printf("plan retries:       %8d\n", res.PlanRetries)
		fmt.Printf("deadline misses:    %8d\n", res.DeadlineMisses)
		fmt.Println("\nwindows:")
		for i, ws := range res.WindowStats {
			mark := ""
			if ws.FrontierSize > 0 {
				mark = fmt.Sprintf("  [%s, %d-point frontier]", ws.SLO, ws.FrontierSize)
			}
			if ws.Interrupted {
				mark += "  ← interrupted"
			}
			fmt.Printf("  %2d. [%8.2fms %8.2fms] %d requests, %d done, %d requeued, %d events, %d retries%s\n",
				i+1, ws.Start.Seconds()*1e3, ws.End.Seconds()*1e3,
				ws.Requests, ws.Completed, ws.Requeued, ws.EventsApplied, ws.PlanRetries, mark)
		}
	}
	printSLOBudgets(out.sloMon)
	return nil
}

// buildFleet assembles an n-device fleet: device 0 is the -soc SoC, devices
// 1..n−1 cycle the mixed mobile presets. All devices share the planner and
// stream configuration and publish into reg through per-device labels.
func buildFleet(s *soc.SoC, n int, policyName string, popts core.Options, scfg stream.Config, reg *obs.Registry, logger *slog.Logger, spans *obs.SpanRecorder) (*fleet.Fleet, error) {
	mixed := []func() *soc.SoC{soc.Kirin990, soc.Snapdragon778G, soc.Snapdragon870}
	devices := make([]*fleet.Device, n)
	for i := range devices {
		ds := s
		if i > 0 {
			ds = mixed[(i-1)%len(mixed)]()
		}
		dev, err := fleet.NewDevice(fleet.DeviceSpec{
			Name:    fmt.Sprintf("dev%d", i),
			SoC:     ds,
			Planner: popts,
			Stream:  scfg,
		}, reg, logger)
		if err != nil {
			return nil, err
		}
		devices[i] = dev
	}
	policy, err := fleet.PolicyByName(policyName)
	if err != nil {
		return nil, err
	}
	return fleet.New(devices, fleet.Config{Policy: policy, Metrics: reg, Logger: logger, Spans: spans})
}

// runFleet shards a Poisson arrival stream (per-device decorrelated seeds)
// across the fleet and prints the sharded-serving statistics.
func runFleet(ctx context.Context, fl *fleet.Fleet, models []*model.Model, gap time.Duration, out streamOutputs) error {
	requests := fleet.PoissonArrivals(models, gap, 7, len(fl.Devices()))
	execOpts := pipeline.DefaultOptions()
	execOpts.Logger = out.logger
	res, err := fl.RunContext(ctx, requests, execOpts)
	if err != nil {
		return err
	}
	if out.spansOut != "" {
		if err := writeSpans(out.spansOut, out.spans, out.service); err != nil {
			return err
		}
	}
	if out.reqTraceOut != "" {
		if err := writeTimelines(out.reqTraceOut, res.Timelines); err != nil {
			return err
		}
	}
	if out.report {
		raw, err := res.Report.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	if out.metricsOut != "" {
		if err := writeMetrics(out.metricsOut, out.registry); err != nil {
			return err
		}
	}
	fmt.Printf("fleet run: %d requests over %d devices (%s policy), mean gap %v\n",
		len(requests), len(fl.Devices()), fl.Policy(), gap)
	fmt.Printf("makespan:           %8.2f ms\n", res.Makespan.Seconds()*1e3)
	fmt.Printf("mean sojourn:       %8.2f ms  (p95 %.2f ms)\n",
		res.Report.MeanSojournMS, res.Report.P95SojournMS)
	fmt.Printf("handoffs:           %8d\n", res.Handoffs)
	for _, d := range res.Report.PerDevice {
		state := "live"
		if d.Down {
			state = "down"
		}
		fmt.Printf("  %-6s %-16s %-4s %4d assigned, %4d completed, %d in / %d out handoffs\n",
			d.Device, d.SoC, state, d.Assigned, d.Completed, d.HandoffsIn, d.HandoffsOut)
	}
	printSLOBudgets(out.sloMon)
	return nil
}

// parseSLOBudgets parses the -slo-budget flag: comma-separated class=target
// pairs where class is a named SLO class (latency-critical, balanced,
// battery-saver) and target is the tolerated deadline-miss fraction.
func parseSLOBudgets(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -slo-budget entry %q (want class=target)", part)
		}
		class, err := core.ParseSLOClass(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("-slo-budget: %w", err)
		}
		if class.Kind == core.SLOUnset {
			return nil, fmt.Errorf("-slo-budget: empty class in %q", part)
		}
		var target float64
		if _, err := fmt.Sscanf(strings.TrimSpace(val), "%g", &target); err != nil {
			return nil, fmt.Errorf("bad -slo-budget target %q: %w", val, err)
		}
		if target < 0 || target > 1 {
			return nil, fmt.Errorf("-slo-budget target %g out of range [0,1]", target)
		}
		out[class.String()] = target
	}
	return out, nil
}

// printSLOBudgets prints the per-class error-budget summary after a run (the
// textual form of the /slo endpoint). A nil monitor prints nothing.
func printSLOBudgets(mon *obs.SLOMonitor) {
	if mon == nil {
		return
	}
	rep := mon.Report()
	if len(rep.Classes) == 0 {
		return
	}
	fmt.Println("\nSLO error budgets:")
	for _, c := range rep.Classes {
		fmt.Printf("  %-18s target %5.3f  missed %d/%d (%.3f)  burn %5.2fx  budget left %5.1f%%\n",
			c.Class, c.Target, c.Missed, c.Total, c.MissFraction,
			c.BurnRate, c.BudgetRemaining*100)
	}
}

// writeTimelines dumps the run's request timelines (phase events and sojourn
// decompositions) as indented JSON.
func writeTimelines(path string, tls []stream.RequestTimeline) error {
	data, err := json.MarshalIndent(tls, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d request timelines to %s\n", len(tls), path)
	return nil
}

// writeMetrics dumps the registry in Prometheus text exposition format.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePrometheus(f, reg); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote metrics to %s\n", path)
	return nil
}

// offlineReport builds a run report for a one-shot (non-stream) run, where
// every request arrives at t=0 so sojourn equals completion time.
func offlineReport(s *soc.SoC, planner *core.Planner, res *pipeline.Result, planWall time.Duration) *obs.RunReport {
	hits, misses := planner.CacheStats()
	var slowSum, slowMax float64
	for _, e := range res.Timeline {
		slowSum += e.Slowdown
		if e.Slowdown > slowMax {
			slowMax = e.Slowdown
		}
	}
	var meanSlow float64
	if len(res.Timeline) > 0 {
		meanSlow = slowSum / float64(len(res.Timeline))
	}
	var ratio float64
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	sojourns := append([]time.Duration(nil), res.Completions...)
	sort.Slice(sojourns, func(i, j int) bool { return sojourns[i] < sojourns[j] })
	var mean, p95 time.Duration
	if n := len(sojourns); n > 0 {
		var sum time.Duration
		for _, d := range sojourns {
			sum += d
		}
		mean = sum / time.Duration(n)
		idx := (n*95 + 99) / 100 // ceil(0.95 n)
		if idx > n {
			idx = n
		}
		p95 = sojourns[idx-1]
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return &obs.RunReport{
		SoC:           s.Name,
		Requests:      len(res.Completions),
		Completed:     len(res.Completions),
		MakespanMS:    ms(res.Makespan),
		MeanSojournMS: ms(mean),
		P95SojournMS:  ms(p95),
		Planner: obs.PlannerReport{
			PlanWallMS:    ms(planWall),
			DPCells:       planner.DPCells(),
			CacheHits:     hits,
			CacheMisses:   misses,
			CacheHitRatio: ratio,
		},
		Executor: obs.ExecutorReport{
			Slices:          len(res.Timeline),
			BubbleMS:        ms(res.BubbleTime),
			AdmissionStalls: res.AdmissionStalls,
			PeakMemoryBytes: res.PeakMemoryBytes,
			MeanSlowdown:    meanSlow,
			MaxSlowdown:     slowMax,
		},
	}
}

// runComparison executes every scheme over the same requests and prints the
// Fig. 7-style side-by-side table.
func runComparison(s *soc.SoC, models []*model.Model) error {
	profiles := make([]*profile.Profile, len(models))
	for i, m := range models {
		p, err := profile.New(s, m)
		if err != nil {
			return err
		}
		profiles[i] = p
	}
	type scheme struct {
		name  string
		build func() (*pipeline.Schedule, error)
	}
	schemes := []scheme{
		{"MNN (serial)", func() (*pipeline.Schedule, error) { return baseline.SerialMNN(s, profiles) }},
		{"Pipe-it", func() (*pipeline.Schedule, error) { return baseline.PipeIt(s, profiles) }},
		{"Band", func() (*pipeline.Schedule, error) { return baseline.Band(s, profiles) }},
		{"H²P (No C/T)", func() (*pipeline.Schedule, error) {
			pl, err := core.NewPlanner(s, core.NoCTOptions())
			if err != nil {
				return nil, err
			}
			plan, err := pl.PlanProfiles(profiles)
			if err != nil {
				return nil, err
			}
			return plan.Schedule, nil
		}},
		{"Hetero²Pipe", func() (*pipeline.Schedule, error) {
			pl, err := core.NewPlanner(s, core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			plan, err := pl.PlanProfiles(profiles)
			if err != nil {
				return nil, err
			}
			return plan.Schedule, nil
		}},
	}
	fmt.Printf("%s, %d requests:\n", s.Name, len(models))
	fmt.Printf("%-14s %12s %14s %10s %12s\n", "scheme", "latency", "throughput", "energy", "peak mem")
	for _, sc := range schemes {
		sched, err := sc.build()
		if err != nil {
			fmt.Printf("%-14s %12s\n", sc.name, "n/a ("+err.Error()+")")
			continue
		}
		res, err := pipeline.Execute(sched, pipeline.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %10.1fms %11.2f/s %9.2fJ %10.1fMB\n",
			sc.name, res.Makespan.Seconds()*1e3, res.Throughput(),
			res.EnergyJoules, float64(res.PeakMemoryBytes)/1e6)
	}
	return nil
}
