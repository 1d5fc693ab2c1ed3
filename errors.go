package hetero2pipe

import (
	"context"
	"errors"
	"fmt"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/stream"
)

// Sentinel errors for the facade. Every error returned by System wraps one
// of these when the failure matches, so callers branch with errors.Is
// instead of string matching; the full internal cause stays on the chain.
var (
	// ErrUnknownPreset: NewSystem was given a SoC preset name that does
	// not exist.
	ErrUnknownPreset = errors.New("hetero2pipe: unknown SoC preset")
	// ErrUnknownModel: a model name is not in the built-in zoo (see
	// Models for the valid list).
	ErrUnknownModel = errors.New("hetero2pipe: unknown model")
	// ErrNoProcessor: no processor can serve the request — every capable
	// processor is offline or the SoC lacks the required operator support.
	ErrNoProcessor = errors.New("hetero2pipe: no processor available")
	// ErrCancelled: the run was aborted by its context (cancellation or
	// deadline) before completing.
	ErrCancelled = errors.New("hetero2pipe: run cancelled")
	// ErrUnknownSLOClass: ParseSLOClass was given a class name outside the
	// grammar (latency-critical, balanced, battery-saver, custom:w,w,w,w).
	// Aliases the core sentinel so both layers match with errors.Is.
	ErrUnknownSLOClass = core.ErrUnknownSLOClass
	// ErrInvalidRequest: RunStream or RunFleet was given a request stream
	// it cannot serve — a StreamRequest with a nil Model, or arrivals out
	// of order. Aliases the stream sentinel so both layers match with
	// errors.Is.
	ErrInvalidRequest = stream.ErrInvalidRequest
)

// wrapRunErr lifts internal failure modes onto the facade sentinels while
// keeping the original chain intact.
func wrapRunErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCancelled, err)
	}
	if errors.Is(err, core.ErrInfeasiblePartition) {
		return fmt.Errorf("%w: %w", ErrNoProcessor, err)
	}
	return err
}
