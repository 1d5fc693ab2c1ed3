package model

import (
	"errors"
	"fmt"
	"math"
)

// Layer is one node of a network's layer chain. Hetero²Pipe partitions
// models at layer granularity (Definition 1, "Model Slicing"), so a Layer is
// the atomic unit of work the planner moves between processors.
//
// All sizes are in bytes assuming FP16 storage (the precision the paper's
// mobile deployments use); FLOPs count multiply-accumulates as two
// operations, the usual convention.
type Layer struct {
	// Name identifies the layer within its model (e.g. "conv3_2").
	Name string
	// Kind is the operator class; it drives hardware affinity and NPU
	// supportability.
	Kind OpKind
	// FLOPs is the floating-point operation count of one inference at
	// batch size 1.
	FLOPs float64
	// InputBytes is the size of the input activation tensor.
	InputBytes int64
	// OutputBytes is the size of the output activation tensor; this is the
	// amount copied between processors when a slice boundary falls after
	// this layer (the T^c term of Eq. 2).
	OutputBytes int64
	// WeightBytes is the size of the layer's parameters.
	WeightBytes int64
	// WorkingSetBytes approximates the live bytes the layer touches per
	// output tile; when it exceeds the L2 cache, the layer becomes
	// memory-bound (Observation 2).
	WorkingSetBytes int64
}

// TrafficBytes returns the total memory traffic a solo execution of the
// layer generates: inputs and weights read, outputs written. It is the
// numerator of the layer's bandwidth demand and the quantity the contention
// model works from.
func (l Layer) TrafficBytes() int64 {
	return l.InputBytes + l.WeightBytes + l.OutputBytes
}

// ArithmeticIntensity returns FLOPs per byte of memory traffic, the
// roofline-model x-axis. Low intensity (large MatMul/FC layers, Observation
// 2; SqueezeNet's small conv layers, Observation 3) means memory-bound.
func (l Layer) ArithmeticIntensity() float64 {
	t := l.TrafficBytes()
	if t == 0 {
		return 0
	}
	return l.FLOPs / float64(t)
}

// Validate reports the first structural problem with the layer, or nil.
func (l Layer) Validate() error {
	switch {
	case l.Name == "":
		return errors.New("layer has empty name")
	case !l.Kind.Valid():
		return fmt.Errorf("layer %q has invalid kind %d", l.Name, int(l.Kind))
	case l.FLOPs < 0:
		return fmt.Errorf("layer %q has negative FLOPs", l.Name)
	case l.InputBytes < 0 || l.OutputBytes < 0 || l.WeightBytes < 0 || l.WorkingSetBytes < 0:
		return fmt.Errorf("layer %q has negative byte count", l.Name)
	}
	return nil
}

// Model is an inference network represented as a linear chain of layers.
// Branchy architectures (GoogLeNet inception blocks, ResNet residuals,
// YOLOv4 routes) are serialised into their topological execution order; the
// paper's coarse-grained K-way slicing (Definition 1) treats models the same
// way, since a slice boundary is a cut of the whole dataflow at a depth.
type Model struct {
	// Name is the zoo-unique model name, e.g. "BERT".
	Name string
	// Layers is the execution-ordered layer chain.
	Layers []Layer
	// InputBytes is the network input size (one image / token sequence).
	InputBytes int64
}

// NumLayers returns the length of the layer chain.
func (m *Model) NumLayers() int { return len(m.Layers) }

// Digest returns an FNV-1a content hash over every field of the model: two
// models with equal digests are structurally identical up to a 64-bit hash
// collision. It costs O(n); the planner's cost cache computes it once per
// model and hot paths read that copy.
func (m *Model) Digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) // FNV-1a offset basis
	word := func(v uint64) {
		for i := 0; i < 64; i += 8 {
			h ^= (v >> i) & 0xff
			h *= prime
		}
	}
	str := func(s string) {
		word(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	str(m.Name)
	word(uint64(m.InputBytes))
	word(uint64(len(m.Layers)))
	for i := range m.Layers {
		l := &m.Layers[i]
		str(l.Name)
		word(uint64(l.Kind))
		word(math.Float64bits(l.FLOPs))
		word(uint64(l.InputBytes))
		word(uint64(l.OutputBytes))
		word(uint64(l.WeightBytes))
		word(uint64(l.WorkingSetBytes))
	}
	return h
}

// TotalFLOPs returns the per-inference FLOP count of the whole network.
func (m *Model) TotalFLOPs() float64 {
	var sum float64
	for _, l := range m.Layers {
		sum += l.FLOPs
	}
	return sum
}

// TotalWeightBytes returns the parameter size of the network — the "model
// size" the paper quotes (e.g. SqueezeNet 4.8 MB, GoogLeNet 23 MB).
func (m *Model) TotalWeightBytes() int64 {
	var sum int64
	for _, l := range m.Layers {
		sum += l.WeightBytes
	}
	return sum
}

// TotalTrafficBytes returns the solo memory traffic of one inference.
func (m *Model) TotalTrafficBytes() int64 {
	var sum int64
	for _, l := range m.Layers {
		sum += l.TrafficBytes()
	}
	return sum
}

// PeakActivationBytes returns the largest activation tensor along the chain,
// the dominant term of transient memory footprint.
func (m *Model) PeakActivationBytes() int64 {
	var peak int64
	for _, l := range m.Layers {
		if l.OutputBytes > peak {
			peak = l.OutputBytes
		}
		if l.InputBytes > peak {
			peak = l.InputBytes
		}
	}
	return peak
}

// FootprintBytes estimates the resident memory of running the model:
// weights plus double-buffered peak activations. This feeds the memory
// capacity constraint (Eq. 6) and the Fig. 9 footprint tiers.
func (m *Model) FootprintBytes() int64 {
	return m.TotalWeightBytes() + 2*m.PeakActivationBytes()
}

// SliceFootprintBytes estimates the resident memory of running only layers
// [from, to] (inclusive) of the model.
func (m *Model) SliceFootprintBytes(from, to int) int64 {
	if from < 0 || to >= len(m.Layers) || from > to {
		return 0
	}
	var weights, peak int64
	for i := from; i <= to; i++ {
		weights += m.Layers[i].WeightBytes
		if b := m.Layers[i].OutputBytes; b > peak {
			peak = b
		}
		if b := m.Layers[i].InputBytes; b > peak {
			peak = b
		}
	}
	return weights + 2*peak
}

// NPUUnsupportedLayers returns the indices of layers whose operator kind the
// NPU cannot execute. A non-empty result means NPU execution of a slice
// covering those layers must fall back (Band-style) or be avoided.
func (m *Model) NPUUnsupportedLayers() []int {
	var out []int
	for i, l := range m.Layers {
		if !l.Kind.NPUSupported() {
			out = append(out, i)
		}
	}
	return out
}

// FullyNPUSupported reports whether every layer runs on the NPU.
func (m *Model) FullyNPUSupported() bool {
	for _, l := range m.Layers {
		if !l.Kind.NPUSupported() {
			return false
		}
	}
	return true
}

// Validate checks structural consistency of the model: non-empty chain,
// valid layers, and tensor-size continuity (each layer's input matches the
// previous layer's output).
func (m *Model) Validate() error {
	if m.Name == "" {
		return errors.New("model has empty name")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("model %q has no layers", m.Name)
	}
	if m.InputBytes <= 0 {
		return fmt.Errorf("model %q has non-positive input size", m.Name)
	}
	for i, l := range m.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("model %q layer %d: %w", m.Name, i, err)
		}
	}
	if m.Layers[0].InputBytes != m.InputBytes {
		return fmt.Errorf("model %q: first layer input %d != model input %d",
			m.Name, m.Layers[0].InputBytes, m.InputBytes)
	}
	for i := 1; i < len(m.Layers); i++ {
		if m.Layers[i].InputBytes != m.Layers[i-1].OutputBytes {
			return fmt.Errorf("model %q: layer %d (%s) input %d != layer %d output %d",
				m.Name, i, m.Layers[i].Name, m.Layers[i].InputBytes, i-1, m.Layers[i-1].OutputBytes)
		}
	}
	return nil
}

// Clone returns a deep copy of the model. Planner passes mutate slice
// boundaries, never layers, but callers that edit layers (e.g. batching)
// must not alias the zoo's canonical instances.
func (m *Model) Clone() *Model {
	layers := make([]Layer, len(m.Layers))
	copy(layers, m.Layers)
	return &Model{Name: m.Name, Layers: layers, InputBytes: m.InputBytes}
}

// String summarises the model.
func (m *Model) String() string {
	return fmt.Sprintf("%s(%d layers, %.2f GFLOPs, %.1f MB weights)",
		m.Name, len(m.Layers), m.TotalFLOPs()/1e9, float64(m.TotalWeightBytes())/1e6)
}
