// Package limits defines the typed run-limit errors shared by every layer
// of the execution pipeline — the interpreter, the KremLib runtime, the
// CLIs, and the serve daemon. A run that is
// cancelled, exhausts its instruction budget, or exceeds a memory cap
// fails with one of these errors instead of wedging or killing the
// process, so callers can distinguish "the program is broken" from "the
// run hit a resource wall" and react accordingly (exit codes, HTTP
// status, retry policy).
package limits

import (
	"errors"
	"fmt"
)

// Execution-budget constants shared by every engine (the tree-walking
// interpreter and the bytecode VM). Keeping them here — rather than inline
// in one engine — guarantees both engines poll and stop at exactly the
// same instruction counts, which the differential oracle and the
// prefix-invariant tests rely on.
const (
	// LiveCheckShift sets the periodic liveness-poll interval: context
	// cancellation and the shadow-page cap are checked once every
	// 2^LiveCheckShift instructions, so the per-instruction cost is one
	// AND and one branch (or, in the batched VM, one comparison per basic
	// block).
	LiveCheckShift = 14
	// LiveCheckInterval is the poll period in instructions.
	LiveCheckInterval = 1 << LiveCheckShift
	// LiveCheckMask gates the poll: it fires when steps&LiveCheckMask == 0.
	LiveCheckMask = LiveCheckInterval - 1
	// DefaultMaxSteps is the instruction budget applied when a run does not
	// set one.
	DefaultMaxSteps = 2_000_000_000
)

// Sentinel causes, matched with errors.Is.
var (
	// ErrCancelled marks a run stopped by context cancellation — a caller
	// deadline or a client disconnect.
	ErrCancelled = errors.New("run cancelled")
	// ErrBudgetExceeded marks a run that used up its instruction budget.
	ErrBudgetExceeded = errors.New("instruction budget exceeded")
	// ErrMemCap marks a run that exceeded a memory cap (simulated heap
	// words or shadow-memory pages).
	ErrMemCap = errors.New("memory cap exceeded")
)

// Error is a limit violation annotated with the run state at the point
// the limit fired. Unwrap yields the sentinel cause.
type Error struct {
	Cause error  // one of the sentinels above
	Steps uint64 // instructions executed when the limit fired
	Pages int    // live shadow pages when the limit fired (0 outside HCPA)
	Msg   string // human-readable detail
}

func (e *Error) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return e.Cause.Error()
}

func (e *Error) Unwrap() error { return e.Cause }

// Cancelled builds an ErrCancelled error at the given step count.
func Cancelled(steps uint64) *Error {
	return &Error{Cause: ErrCancelled, Steps: steps,
		Msg: fmt.Sprintf("run cancelled after %d instructions", steps)}
}

// Budget builds an ErrBudgetExceeded error for the given budget.
func Budget(budget, steps uint64) *Error {
	return &Error{Cause: ErrBudgetExceeded, Steps: steps,
		Msg: fmt.Sprintf("step limit exceeded (%d)", budget)}
}

// MemCap builds an ErrMemCap error with a caller-supplied description.
func MemCap(steps uint64, pages int, format string, args ...interface{}) *Error {
	return &Error{Cause: ErrMemCap, Steps: steps, Pages: pages,
		Msg: fmt.Sprintf(format, args...)}
}

// IsLimit reports whether err is (or wraps) any of the limit sentinels.
func IsLimit(err error) bool {
	return errors.Is(err, ErrCancelled) ||
		errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, ErrMemCap)
}
