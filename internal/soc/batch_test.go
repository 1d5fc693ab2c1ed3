package soc

import (
	"testing"
	"time"

	"hetero2pipe/internal/model"
)

// alignmentBatchScan is the reference AlignmentBatch: a plain BatchLatency
// scan over n = 1..maxBatch.
func alignmentBatchScan(p *Processor, light *model.Model, target time.Duration, maxBatch int) int {
	if maxBatch < 1 {
		maxBatch = 1
	}
	for n := 1; n <= maxBatch; n++ {
		if BatchLatency(p, light, n) >= target {
			return n
		}
	}
	return maxBatch
}

// TestAlignmentBatchMatchesScan pins AlignmentBatch, which sums the layer
// times once, to the per-batch-size BatchLatency scan over every preset,
// processor, zoo model, a spread of targets and maxBatch values.
func TestAlignmentBatchMatchesScan(t *testing.T) {
	maxBatches := []int{0, 1, 2, 3, 7, 32}
	for _, s := range AllPresets() {
		for pi := range s.Processors {
			p := &s.Processors[pi]
			for _, m := range model.All() {
				solo := BatchLatency(p, m, 1)
				targets := []time.Duration{0, 1, time.Millisecond, 50 * time.Millisecond, time.Second, InfDuration}
				if solo != InfDuration {
					targets = append(targets, solo, solo+1, 3*solo, 40*solo)
				}
				for _, target := range targets {
					for _, mb := range maxBatches {
						got := AlignmentBatch(p, m, target, mb)
						want := alignmentBatchScan(p, m, target, mb)
						if got != want {
							t.Fatalf("%s/%s/%s target=%v maxBatch=%d: AlignmentBatch=%d, scan=%d",
								s.Name, p.ID, m.Name, target, mb, got, want)
						}
					}
				}
			}
		}
	}
}
