package soc

import "testing"

// TestDegradationStateKey pins the StateKey contract the plan cache keys
// on: the key is a function of the current derating state alone, so it
// returns to an earlier value when the state does (while the epoch only
// moves forward), every derating field and every processor position feeds
// it, an unset factor and an explicit factor 1 are one state, a Degrade
// write that bypasses Apply changes it, and BumpEpoch retires it even when
// no field changed.
func TestDegradationStateKey(t *testing.T) {
	s := Kirin990()
	nominal := s.StateKey()
	if other := Kirin990().StateKey(); other != nominal {
		t.Fatalf("two fresh Kirin990s have keys %x and %x", nominal, other)
	}
	apply := func(ev Event) {
		t.Helper()
		if _, err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}

	// Throttle → restore: the epoch advanced twice, the key came back.
	apply(Event{Kind: EventThermalThrottle, Processor: "cpu-big", Factor: 1.5})
	throttled := s.StateKey()
	if throttled == nominal {
		t.Fatal("throttle did not change the state key")
	}
	apply(Event{Kind: EventThermalThrottle, Processor: "cpu-big", Factor: 1})
	if got := s.StateKey(); got != nominal {
		t.Errorf("restored key %x, want the nominal %x", got, nominal)
	}
	if s.Epoch() != 2 {
		t.Errorf("epoch after throttle+restore = %d, want 2", s.Epoch())
	}
	apply(Event{Kind: EventThermalThrottle, Processor: "cpu-big", Factor: 1.5})
	if got := s.StateKey(); got != throttled {
		t.Errorf("re-throttled key %x, want the earlier throttled %x", got, throttled)
	}
	apply(Event{Kind: EventThermalThrottle, Processor: "cpu-big", Factor: 1})

	// Every field and every processor position is a distinct state.
	keys := map[uint64]string{nominal: "nominal"}
	for _, ev := range []Event{
		{Kind: EventThermalThrottle, Processor: "cpu-big", Factor: 2},
		{Kind: EventThermalThrottle, Processor: "gpu", Factor: 2},
		{Kind: EventFrequencyScale, Processor: "gpu", Factor: 0.5},
		{Kind: EventProcessorOffline, Processor: "npu"},
		{Kind: EventBandwidthSqueeze, Factor: 0.5},
	} {
		t.Run(ev.String(), func(t *testing.T) {
			s := Kirin990()
			if _, err := s.Apply(ev); err != nil {
				t.Fatal(err)
			}
			k := s.StateKey()
			if prev, ok := keys[k]; ok {
				t.Fatalf("state after %s has the key of %s", ev, prev)
			}
			keys[k] = ev.String()
		})
	}

	// An explicit factor 1 is the nominal zero value.
	gpu := s.Processor("gpu")
	gpu.Degrade.ThrottleFactor, gpu.Degrade.FreqFraction, s.BusDerate = 1, 1, 1
	if got := s.StateKey(); got != nominal {
		t.Errorf("explicit factor-1 fields key %x, want the nominal %x", got, nominal)
	}
	gpu.Degrade.ThrottleFactor, gpu.Degrade.FreqFraction, s.BusDerate = 0, 0, 0

	// A write that bypasses Apply moves the key but not the epoch.
	epoch := s.Epoch()
	gpu.Degrade.FreqFraction = 0.5
	if s.StateKey() == nominal {
		t.Error("direct Degrade write did not change the state key")
	}
	if s.Epoch() != epoch {
		t.Errorf("direct Degrade write moved the epoch %d → %d", epoch, s.Epoch())
	}
	gpu.Degrade.FreqFraction = 0

	// BumpEpoch retires the key although no field changed, and the new
	// generation's keys again follow the state.
	s.BumpEpoch()
	bumped := s.StateKey()
	if bumped == nominal {
		t.Error("BumpEpoch kept the state key")
	}
	apply(Event{Kind: EventProcessorOffline, Processor: "npu"})
	apply(Event{Kind: EventProcessorOnline, Processor: "npu"})
	if got := s.StateKey(); got != bumped {
		t.Errorf("offline → online after BumpEpoch: key %x, want %x", got, bumped)
	}
}
