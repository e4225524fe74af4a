package tls

import (
	"errors"
	"fmt"

	"jrpm/internal/mem"
)

// Typed error sentinels for the speculation protocol. They replace the
// panics the unit used to throw on invariant breaches, so a protocol bug in
// a caller (or an injected fault that drives the unit into a corner)
// surfaces as an error through Machine.Run instead of crashing the process.
//
// Every concrete error carries structured machine coordinates (operation,
// cpu, iteration, head, address where applicable) and supports errors.As, so
// litmus counterexamples and `jrpm serve` logs can classify failures without
// string matching.
var (
	// ErrProtocol is the sentinel every protocol-invariant breach unwraps
	// to: committing or draining from a non-head thread, nested STL starts,
	// switching while inactive.
	ErrProtocol = errors.New("tls: speculation protocol violation")

	// ErrStoreBufferOverflow reports a speculative store buffer that grew
	// past the unrecoverable hard cap — the overflow-stall machinery failed
	// to park the thread, so its state can no longer be buffered.
	ErrStoreBufferOverflow = errors.New("tls: store buffer overflow beyond drain capacity")

	// ErrSpecViolationStorm reports a violation storm: restarts without a
	// single intervening commit exceeded the configured limit, so the STL is
	// thrashing instead of progressing.
	ErrSpecViolationStorm = errors.New("tls: speculative violation storm")
)

// ProtocolError is the concrete error behind ErrProtocol: a speculation
// protocol invariant breach with the machine coordinates needed to classify
// and localize it. CPU, Iter and Head are -1 when not applicable (for
// instance a nested Start has no single offending cpu).
type ProtocolError struct {
	Op     string // protocol operation that was refused ("CommitEOI", "Shutdown", …)
	CPU    int    // acting CPU, -1 when not applicable
	Iter   int64  // acting thread's iteration at the time, -1 when not applicable
	Head   int64  // iteration holding the head token, -1 when not applicable
	Reason string // invariant that was breached
}

// Error renders the breach with its coordinates.
func (e *ProtocolError) Error() string {
	msg := fmt.Sprintf("%v: %s: %s", ErrProtocol, e.Op, e.Reason)
	if e.CPU >= 0 {
		msg += fmt.Sprintf(" (cpu %d", e.CPU)
		if e.Iter >= 0 || e.Head >= 0 {
			msg += fmt.Sprintf(", iter %d, head %d", e.Iter, e.Head)
		}
		msg += ")"
	}
	return msg
}

// Unwrap makes errors.Is(e, ErrProtocol) true.
func (e *ProtocolError) Unwrap() error { return ErrProtocol }

// OverflowError is the concrete error behind ErrStoreBufferOverflow: the
// runaway hard cap tripped on one thread's speculative store buffer.
type OverflowError struct {
	CPU     int      // owning CPU
	Iter    int64    // iteration the thread was executing
	Addr    mem.Addr // word address of the store that tripped the cap
	Lines   int      // buffered line count at the trip
	HardCap int      // the runaway limit that was exceeded
}

// Error renders the overflow with its coordinates.
func (e *OverflowError) Error() string {
	return fmt.Sprintf("%v: cpu %d (iter %d) buffered %d lines storing to %d (hard cap %d)",
		ErrStoreBufferOverflow, e.CPU, e.Iter, e.Lines, e.Addr, e.HardCap)
}

// Unwrap makes errors.Is(e, ErrStoreBufferOverflow) true.
func (e *OverflowError) Unwrap() error { return ErrStoreBufferOverflow }

// ViolationStormError is the concrete error behind ErrSpecViolationStorm:
// the machine's storm backstop counted Restarts restarts without a single
// intervening commit while executing LoopID.
type ViolationStormError struct {
	Restarts int64 // restarts observed without a commit
	LoopID   int64 // source loop of the thrashing STL
}

// Error renders the storm.
func (e *ViolationStormError) Error() string {
	return fmt.Sprintf("%v: %d restarts without a commit (loop %d)", ErrSpecViolationStorm, e.Restarts, e.LoopID)
}

// Unwrap makes errors.Is(e, ErrSpecViolationStorm) true.
func (e *ViolationStormError) Unwrap() error { return ErrSpecViolationStorm }

// headErr builds the ProtocolError for an operation that requires the head
// token but was invoked by cpu while it held iter (head names the current
// token holder).
func (u *Unit) headErr(op string, cpu int) error {
	return &ProtocolError{
		Op: op, CPU: cpu, Iter: u.threads[cpu].iter, Head: u.nextCommit,
		Reason: "requires the non-speculative head",
	}
}

// stateErr builds the ProtocolError for a unit-level state breach with no
// single offending cpu.
func stateErr(op, reason string) error {
	return &ProtocolError{Op: op, CPU: -1, Iter: -1, Head: -1, Reason: reason}
}
