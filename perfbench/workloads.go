package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	h2p "hetero2pipe"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/workload"
)

// burstSize is the number of requests in one burst: one RunFleet/RunStream
// call, the unit the closed loop submits.
const burstSize = 24

// cameraMix is the recurring camera-pipeline model mix of fleet-steady and
// churn.
var cameraMix = []string{"ResNet50", "SqueezeNet", "GoogLeNet"}

// sysConfig carries the process-level settings every workload's System is
// built with.
type sysConfig struct {
	// procs bounds the planner's worker pool (WithParallelism).
	procs int
	// metrics is armed on every run, as a deployment would run.
	metrics *h2p.MetricsRegistry
	// spans and tracing are armed only on the traced run.
	spans   *h2p.SpanRecorder
	tracing bool
}

func (c sysConfig) options() []h2p.Option {
	opts := []h2p.Option{h2p.WithParallelism(c.procs), h2p.WithMetrics(c.metrics)}
	if c.spans != nil {
		opts = append(opts, h2p.WithSpans(c.spans))
	}
	if c.tracing {
		opts = append(opts, h2p.WithRequestTracing(4*burstSize))
	}
	return opts
}

// workloadSpec is one named benchmark workload: how to build its System and
// how to generate its input cycle from a seed.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists, with the layers it is
	// predicted to load and to leave idle (mirrored in BENCHMARK.json).
	Why string
	// Fleet marks a RunFleet workload; the rest call RunStream.
	Fleet bool
	// Frames is the number of distinct bursts in one input cycle. The timed
	// loop replays the cycle; simulated metrics are taken over exactly one
	// cycle so they do not depend on how many bursts fit in the run.
	Frames int
	// Window is the stream planning window (WithWindow).
	Window int
	// Deadline is every request's sojourn budget on the virtual clock.
	Deadline time.Duration
	// MeanGap is the mean virtual inter-arrival gap inside a burst.
	MeanGap time.Duration
	// Events is the per-burst degradation cycle (churn only). It returns
	// the SoC to nominal well before the burst ends, so every burst of the
	// cycle replays identically.
	Events []h2p.Event
	build  func(w *workloadSpec, cfg sysConfig) (*h2p.System, error)
	inputs func(w *workloadSpec, seed uint64) ([][]h2p.StreamRequest, error)
}

var workloads = []*workloadSpec{
	{
		Name: "fleet-steady",
		Why: "3-device hash-routed fleet replaying recurring camera frames: plan-cache hit path; loads fleet routing, " +
			"stream windows, plan signatures, executor; leaves partition/mitigate/steal/tail idle",
		Fleet:    true,
		Frames:   1024,
		Window:   3,
		Deadline: 14 * time.Millisecond,
		MeanGap:  2 * time.Millisecond,
		build: func(w *workloadSpec, cfg sysConfig) (*h2p.System, error) {
			// Device 0 is the base preset; WithFleet cycles Kirin990 and
			// Snapdragon778G onto devices 1 and 2.
			opts := append(cfg.options(),
				h2p.WithFleet(3), h2p.WithFleetPolicy(h2p.PolicyHash),
				h2p.WithWindow(w.Window), h2p.WithMaxBatch(1), h2p.WithPlanCache(64))
			return h2p.NewSystem("Snapdragon870", opts...)
		},
		inputs: cameraFrames(3, false),
	},
	{
		Name: "diverse-mix",
		Why: "1 Kirin990, window 4, bursts of 1-4 model combos from the 10-model zoo: plan-cache miss path; loads candidate " +
			"sweep, mitigation, stealing, tail search; no fleet, little hashing",
		Frames:   1024,
		Window:   4,
		Deadline: 500 * time.Millisecond,
		MeanGap:  300 * time.Millisecond,
		build: func(w *workloadSpec, cfg sysConfig) (*h2p.System, error) {
			opts := append(cfg.options(), h2p.WithWindow(w.Window), h2p.WithPlanCache(8))
			return h2p.NewSystem("Kirin990", opts...)
		},
		inputs: zooCombos,
	},
	{
		Name: "churn",
		Why: "camera mix on 1 Kirin990 with a throttle/frequency/bus degradation cycle per burst: epoch bumps, cost-table " +
			"invalidation, interrupts, requeues and incremental replans",
		Frames:   1024,
		Window:   3,
		Deadline: 30 * time.Millisecond,
		MeanGap:  4 * time.Millisecond,
		Events: []h2p.Event{
			{Kind: h2p.EventThermalThrottle, Processor: "cpu-big", At: 8 * time.Millisecond, Factor: 1.5},
			{Kind: h2p.EventFrequencyScale, Processor: "gpu", At: 16 * time.Millisecond, Factor: 0.7},
			{Kind: h2p.EventBandwidthSqueeze, At: 24 * time.Millisecond, Factor: 0.8},
			{Kind: h2p.EventThermalThrottle, Processor: "cpu-big", At: 36 * time.Millisecond, Factor: 1.0},
			{Kind: h2p.EventFrequencyScale, Processor: "gpu", At: 36 * time.Millisecond, Factor: 1.0},
			{Kind: h2p.EventBandwidthSqueeze, At: 36 * time.Millisecond, Factor: 1.0},
		},
		build: func(w *workloadSpec, cfg sysConfig) (*h2p.System, error) {
			opts := append(cfg.options(),
				h2p.WithWindow(w.Window), h2p.WithMaxBatch(1), h2p.WithPlanCache(32),
				h2p.WithDegradationEvents(w.Events...))
			return h2p.NewSystem("Kirin990", opts...)
		},
		inputs: cameraFrames(1, true),
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// splitmix64 derives decorrelated sub-seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// frameSeed is the seed of frame f of a workload's input cycle.
func frameSeed(seed uint64, f int) uint64 {
	return splitmix64(seed*0x100000001b3 + uint64(f))
}

// cameraFrames builds the camera-mix input cycle. Each frame takes burstSize
// models from the mix — drawn uniformly, or in pipeline order (the mix
// repeated from a seeded starting model) when inOrder is set — and arrival
// times from a seeded Poisson process whose substreams are split across
// devices exactly as the fleet arrival helper does.
func cameraFrames(devices int, inOrder bool) func(w *workloadSpec, seed uint64) ([][]h2p.StreamRequest, error) {
	return func(w *workloadSpec, seed uint64) ([][]h2p.StreamRequest, error) {
		mix, err := workload.Instantiate(cameraMix)
		if err != nil {
			return nil, err
		}
		frames := make([][]h2p.StreamRequest, w.Frames)
		for f := range frames {
			fs := frameSeed(seed, f)
			rng := rand.New(rand.NewSource(int64(fs)))
			models := make([]*model.Model, burstSize)
			phase := rng.Intn(len(mix))
			for i := range models {
				if inOrder {
					models[i] = mix[(phase+i)%len(mix)]
				} else {
					models[i] = mix[rng.Intn(len(mix))]
				}
			}
			reqs := h2p.FleetPoissonArrivals(models, w.MeanGap, fs, devices)
			for i := range reqs {
				reqs[i].Deadline = w.Deadline
			}
			frames[f] = reqs
		}
		return frames, nil
	}
}

// zooCombos builds the diverse-mix input cycle: each burst is filled with
// workload.Generator combinations of 1–4 zoo models; the models of one
// combination arrive together, combinations arrive as a seeded Poisson
// process.
func zooCombos(w *workloadSpec, seed uint64) ([][]h2p.StreamRequest, error) {
	gen, err := workload.NewGenerator(int64(splitmix64(seed)), 1, 4)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(splitmix64(seed ^ 0x5eed))))
	bursts := make([][]h2p.StreamRequest, w.Frames)
	for b := range bursts {
		reqs := make([]h2p.StreamRequest, 0, burstSize)
		at := time.Duration(0)
		for len(reqs) < burstSize {
			at += time.Duration(-float64(w.MeanGap) * math.Log(1-rng.Float64()))
			models, err := workload.Instantiate(gen.Next())
			if err != nil {
				return nil, fmt.Errorf("diverse-mix: %w", err)
			}
			for _, m := range models {
				if len(reqs) == burstSize {
					break
				}
				reqs = append(reqs, h2p.StreamRequest{Model: m, Arrival: at, Deadline: w.Deadline})
			}
		}
		bursts[b] = reqs
	}
	return bursts, nil
}
