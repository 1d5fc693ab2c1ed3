package baseline

import (
	"fmt"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// µLayer-style intra-operator partitioning (Table I / Sec. II-A): each layer
// is split channel-wise across the big CPU and the GPU, both halves execute
// concurrently, and the partial results are merged before the next layer.
// The per-layer merge is the scheme's Achilles heel the paper points out
// for intra-op approaches: "the intermediate results from different
// processors are deemed to be merged with additional overhead of
// significant communication/memory copy per split".
//
// Because every layer occupies both processors at once, requests execute
// serially; the scheme is evaluated analytically rather than through the
// pipeline IR (which models processor-exclusive stages).

// MuLayerLatency returns the per-request latency of channel-wise CPU+GPU
// execution of the model on s: per layer, the work splits in the ratio of
// the two processors' speeds (ideal balance), runs at the combined rate,
// and pays a merge copy of the layer's output plus a synchronisation
// latency.
func MuLayerLatency(s *soc.SoC, m *model.Model) (time.Duration, error) {
	bigs := s.ProcessorsOfKind(soc.KindCPUBig)
	gpus := s.ProcessorsOfKind(soc.KindGPU)
	if len(bigs) == 0 || len(gpus) == 0 {
		return 0, fmt.Errorf("%w: CPU big + GPU", errNoProcessor)
	}
	cpu := &s.Processors[bigs[0]]
	gpu := &s.Processors[gpus[0]]
	var total time.Duration
	for _, l := range m.Layers {
		tc := cpu.LayerTime(l)
		tg := gpu.LayerTime(l)
		if tc == soc.InfDuration || tg == soc.InfDuration {
			return 0, fmt.Errorf("baseline: layer %s unsupported for intra-op split", l.Name)
		}
		// Ideal channel split: combined rate is the sum of rates, so the
		// balanced layer time is the parallel combination tc·tg/(tc+tg).
		combined := time.Duration(float64(tc) * float64(tg) / float64(tc+tg))
		// Merge: the produced halves cross the unified memory once, plus
		// the fixed synchronisation cost of a copy.
		merge := s.CopyTime(l.OutputBytes)
		if merge == soc.InfDuration {
			return 0, fmt.Errorf("baseline: layer %s output copy exceeds the cost bound", l.Name)
		}
		total += combined + merge
	}
	total += cpu.LaunchOverhead + gpu.LaunchOverhead
	return total, nil
}

// MuLayerSerial returns the makespan of serially executing the requests
// with µLayer-style intra-op partitioning.
func MuLayerSerial(s *soc.SoC, models []*model.Model) (time.Duration, error) {
	var total time.Duration
	for _, m := range models {
		lat, err := MuLayerLatency(s, m)
		if err != nil {
			return 0, err
		}
		total += lat
	}
	return total, nil
}
