package core

import (
	"context"
	"fmt"
)

// CanceledError reports a run ended early by its context: the caller
// canceled, or the wall-clock deadline expired. It is the third typed
// outcome of the execution contract next to DeadlockError (the machine
// stopped) and MachineError (the machine broke): here the machine was
// healthy and the host gave up. Cancellation is detected on the run
// loop's heartbeat stride, so Cycle is within a few thousand simulated
// cycles of the cancellation instant; the machine's partial state is
// abandoned, and a fresh machine re-running the same program is
// byte-identical to an uninterrupted run (see cancel_test.go).
type CanceledError struct {
	Cycle uint64
	Err   error // context.Canceled, context.DeadlineExceeded, or the cancel cause
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: run canceled at cycle %d: %v", e.Cycle, e.Err)
}

// Unwrap exposes the context error, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work.
func (e *CanceledError) Unwrap() error { return e.Err }

// canceled returns the typed cancellation error for ctx at cycle now,
// or nil if ctx is still live. The run loop calls it on the heartbeat
// stride — one ctx.Err() atomic load every few thousand cycles — so
// cancellation costs nothing on the hot path and reacts within host
// milliseconds.
func canceled(ctx context.Context, now uint64) *CanceledError {
	if ctx.Err() == nil {
		return nil
	}
	return &CanceledError{Cycle: now, Err: context.Cause(ctx)}
}
