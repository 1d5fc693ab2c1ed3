package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	h2p "hetero2pipe"
	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/fleet"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// The probes time calls into layers that have no span of their own in the
// program. Each probe calls the layer's public functions from here, on the
// inputs of the traced burst it follows, and never touches the traced
// System's caches or counters: planning-step probes run on probe planners
// over fresh preset SoCs.

// probeTimes accumulates probe wall time and call counts over a traced run.
type probeTimes struct {
	route, lookup, mitigate, steal, tail, validate, build, apply time.Duration
	routed, lookups, missWindows, validated, tables, events      int
	routeMismatch                                                int
}

// prober owns the probe-side state: one planner per device preset and a
// separate SoC + planner for the degradation-event probe.
type prober struct {
	procs    int
	planners map[string]*core.Planner
	eventSoC *soc.SoC
	eventPl  *core.Planner
	events   []h2p.Event
	t        probeTimes
}

func newProber(procs int) (*prober, error) {
	s := soc.Kirin990()
	opts := core.DefaultOptions()
	opts.Parallelism = procs
	pl, err := core.NewPlanner(s, opts)
	if err != nil {
		return nil, err
	}
	return &prober{
		procs:    procs,
		planners: make(map[string]*core.Planner),
		eventSoC: s,
		eventPl:  pl,
		events:   workloadByName("churn").Events,
	}, nil
}

func (p *prober) planner(preset string) (*core.Planner, error) {
	if pl := p.planners[preset]; pl != nil {
		return pl, nil
	}
	s := soc.PresetByName(preset)
	if s == nil {
		return nil, fmt.Errorf("probe: unknown preset %q", preset)
	}
	opts := core.DefaultOptions()
	opts.Parallelism = p.procs
	pl, err := core.NewPlanner(s, opts)
	if err != nil {
		return nil, err
	}
	p.planners[preset] = pl
	return pl, nil
}

// devices lists the System's fleet devices (one for a single device).
func devices(sys *h2p.System) []*fleet.Device {
	if fl := sys.Fleet(); fl != nil {
		return fl.Devices()
	}
	return []*fleet.Device{sys.Device()}
}

// route times the fleet layer's routing of one burst: a fresh hash policy's
// Reset (the ring rebuild every fleet run pays) plus one Route per request,
// and checks the probe routes every request where the burst went.
func (p *prober) route(sys *h2p.System, reqs []h2p.StreamRequest, out *burstOut) {
	devs := devices(sys)
	live := make([]int, len(devs))
	for i := range live {
		live[i] = i
	}
	routed := make([]int, len(reqs))
	policy := fleet.NewHashPolicy()
	t0 := time.Now()
	policy.Reset(devs)
	for i, r := range reqs {
		routed[i] = policy.Route(r.Model, i, live, devs)
	}
	p.t.route += time.Since(t0)
	p.t.routed += len(reqs)
	for d, idxs := range out.Assignments {
		for _, i := range idxs {
			if routed[i] != d {
				p.t.routeMismatch++
			}
		}
	}
}

// window is one executed planning window of a traced burst, rebuilt from
// the request timelines: its device and its members in queue order.
type window struct {
	device  int
	index   int
	members []int
}

// windowsOf groups a traced burst's requests by the (device, window) they
// were admitted to. A request requeued by an interrupt belongs to several.
func windowsOf(out *burstOut, devs []*fleet.Device) []window {
	byName := make(map[string]int, len(devs))
	for i, d := range devs {
		byName[d.Name()] = i
	}
	type key struct{ dev, win int }
	groups := make(map[key][]int)
	for i, tl := range out.Timelines {
		seen := make(map[key]bool)
		for _, ev := range tl.Events {
			if ev.Phase != stream.PhaseAdmitted || ev.Window < 0 {
				continue
			}
			k := key{byName[ev.Device], ev.Window}
			if !seen[k] {
				seen[k] = true
				groups[k] = append(groups[k], i)
			}
		}
	}
	out2 := make([]window, 0, len(groups))
	for k, members := range groups {
		sort.Ints(members)
		out2 = append(out2, window{device: k.dev, index: k.win, members: members})
	}
	sort.Slice(out2, func(a, b int) bool {
		if out2[a].device != out2[b].device {
			return out2[a].device < out2[b].device
		}
		return out2[a].index < out2[b].index
	})
	return out2
}

// windows probes every window of a traced burst: the plan-cache lookup on
// the device's planner (a read-only peek), schedule validation on every
// window, and — for windows that missed the plan cache, the only ones
// whose planning runs them — one pass of Algorithm-2 mitigation, work
// stealing and the tail search on a probe planner for the device's preset.
func (p *prober) windows(ctx context.Context, sys *h2p.System, reqs []h2p.StreamRequest, out *burstOut) error {
	devs := devices(sys)
	missed := make(map[[2]int]bool)
	for r, res := range out.Results {
		for wi, ws := range res.WindowStats {
			if ws.PlanCacheMisses > 0 {
				missed[[2]int{out.Devices[r], wi}] = true
			}
		}
	}
	for _, win := range windowsOf(out, devs) {
		dev := devs[win.device]
		models := make([]*model.Model, len(win.members))
		for i, m := range win.members {
			models[i] = reqs[m].Model
		}
		t0 := time.Now()
		dev.HasCachedPlan(models)
		p.t.lookup += time.Since(t0)
		p.t.lookups++

		pl, err := p.planner(dev.SoC().Name)
		if err != nil {
			return err
		}
		if err := p.plan(ctx, pl, models, missed[[2]int{win.device, win.index}]); err != nil {
			return err
		}
	}
	return nil
}

// plan builds the window's DP-cut schedule on the probe planner and times
// its validation; on a plan-cache miss it also times one pass of each
// vertical planning step.
func (p *prober) plan(ctx context.Context, pl *core.Planner, models []*model.Model, miss bool) error {
	k := pl.SoC().NumProcessors()
	profiles := make([]*profile.Profile, len(models))
	cuts := make([]pipeline.Cuts, len(models))
	intensities := make([]float64, len(models))
	for i, m := range models {
		prof, err := pl.Profile(m)
		if err != nil {
			return err
		}
		c, _, err := core.Partition(prof)
		if err != nil {
			return err
		}
		profiles[i], cuts[i], intensities[i] = prof, c, intensity(prof)
	}
	sched, err := pipeline.FromCuts(pl.SoC(), profiles, cuts)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = sched.Validate()
	p.t.validate += time.Since(t0)
	p.t.validated++
	if err != nil {
		return fmt.Errorf("probe schedule: %w", err)
	}
	if !miss {
		return nil
	}
	p.t.missWindows++

	classes := contention.Classify(intensities, core.DefaultOptions().HighQuantile)
	t0 = time.Now()
	core.Mitigate(classes, k)
	p.t.mitigate += time.Since(t0)

	stolen := make([]pipeline.Cuts, len(cuts))
	for i, c := range cuts {
		stolen[i] = append(pipeline.Cuts(nil), c...)
	}
	t0 = time.Now()
	core.WorkStealParallel(profiles, stolen, k, p.procs)
	p.t.steal += time.Since(t0)

	t0 = time.Now()
	_, err = core.OptimizeTailContext(ctx, sched, pipeline.DefaultOptions(), p.procs)
	p.t.tail += time.Since(t0)
	return err
}

// intensity is a model's solo bus demand on the first processor that runs
// it whole, big CPU first — the planner's measured contention intensity.
func intensity(p *profile.Profile) float64 {
	n := p.NumLayers()
	best := -1
	for k := 0; k < p.NumProcessors(); k++ {
		if !p.Table(k).Supported(0, n-1) {
			continue
		}
		if p.Table(k).Proc().Kind == soc.KindCPUBig {
			best = k
			break
		}
		if best < 0 {
			best = k
		}
	}
	if best < 0 {
		return 0
	}
	return p.Footprint(best, 0, n-1).DemandGBps
}

// buildProfile times building one model's cost tables from scratch on a
// preset SoC.
func (p *prober) buildProfile(preset string, m *model.Model) error {
	s := soc.PresetByName(preset)
	if s == nil {
		return fmt.Errorf("probe: unknown preset %q", preset)
	}
	t0 := time.Now()
	prof, err := profile.New(s, m)
	p.t.build += time.Since(t0)
	if err != nil {
		return err
	}
	p.t.tables += prof.NumProcessors()
	return nil
}

// applyEvents times one pass of the churn degradation cycle on the probe
// SoC: SoC.Apply plus Planner.InvalidateProcessors per event, against a
// cost cache warmed with the camera mix beforehand (untimed), so each
// invalidation drops real tables. The cycle ends at nominal, so passes
// repeat exactly.
func (p *prober) applyEvents(mix []*model.Model) error {
	for _, m := range mix {
		if _, err := p.eventPl.Profile(m); err != nil {
			return err
		}
	}
	for _, ev := range p.events {
		t0 := time.Now()
		affected, err := p.eventSoC.Apply(ev)
		p.eventPl.InvalidateProcessors(affected...)
		p.t.apply += time.Since(t0)
		if err != nil {
			return err
		}
		p.t.events++
	}
	return nil
}
