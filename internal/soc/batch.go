package soc

import (
	"time"

	"hetero2pipe/internal/model"
)

// Batching model (paper Appendix D, Fig. 13). On mobile processors the
// limited on-chip memory makes batched latency an affine function of batch
// size: latency(n) ≈ a + b·n, where a amortises kernel launch and weight
// loading and b is the per-sample compute/memory time. Desktop CUDA GPUs,
// with abundant on-chip SRAM and massive parallelism, batch sub-linearly
// until occupancy saturates.

// BatchLatency returns the latency of executing the whole model at the given
// batch size on the processor, including one launch overhead and one weight
// load (weights are loaded once per batch, which is what makes batching
// lightweight models profitable).
func BatchLatency(p *Processor, m *model.Model, batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	perSample, fixed := batchParts(p, m)
	return batchLatencyOf(p, perSample, fixed, batch)
}

// batchParts returns the batch-size-independent terms of BatchLatency: the
// summed per-sample layer time (InfDuration if any layer is unsupported)
// and the fixed launch-plus-weight-load cost.
func batchParts(p *Processor, m *model.Model) (perSample, fixed time.Duration) {
	for _, l := range m.Layers {
		t := p.LayerTime(l)
		if t == InfDuration {
			return InfDuration, 0
		}
		perSample += t
	}
	// Weight-load time: streaming the parameter set into caches/buffers.
	loadSec := float64(m.TotalWeightBytes()) / (p.SoloBandwidthGBps * 1e9)
	fixed = p.LaunchOverhead + time.Duration(loadSec*float64(time.Second))
	return perSample, fixed
}

// batchLatencyOf combines batchParts's terms for one batch size (≥ 1).
func batchLatencyOf(p *Processor, perSample, fixed time.Duration, batch int) time.Duration {
	if perSample == InfDuration {
		return InfDuration
	}
	return fixed + time.Duration(float64(perSample)*batchScale(p, batch))
}

// batchScale returns the effective multiple of per-sample time for a batch.
// Mobile units are already fully utilised at batch 1, so scaling is linear
// (slope ≈ 1); the desktop GPU overlaps samples until it saturates.
func batchScale(p *Processor, batch int) float64 {
	if p.Kind != KindDesktopGPU {
		return float64(batch)
	}
	// Sub-linear until ~8 concurrent samples saturate the SMs.
	const saturation = 8.0
	n := float64(batch)
	if n <= saturation {
		return 1 + (n-1)*0.35
	}
	base := 1 + (saturation-1)*0.35
	return base + (n-saturation)*0.9
}

// MarginalBatchCost returns latency(n) - latency(n-1), the "rate of change
// in inference latency as batch size increases" plotted in Fig. 13.
func MarginalBatchCost(p *Processor, m *model.Model, batch int) time.Duration {
	if batch <= 1 {
		return BatchLatency(p, m, 1)
	}
	return BatchLatency(p, m, batch) - BatchLatency(p, m, batch-1)
}

// AlignmentBatch returns the smallest batch size whose batched latency for
// the light model meets or exceeds the target duration — the Appendix-D
// workaround that closes the 20–40× gap between light and heavy models so
// vertical alignment has comparable stage durations to work with.
func AlignmentBatch(p *Processor, light *model.Model, target time.Duration, maxBatch int) int {
	if maxBatch < 1 {
		maxBatch = 1
	}
	perSample, fixed := batchParts(p, light)
	for n := 1; n <= maxBatch; n++ {
		if batchLatencyOf(p, perSample, fixed, n) >= target {
			return n
		}
	}
	return maxBatch
}
