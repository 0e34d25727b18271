package kremlin

import (
	"errors"

	"kremlin/internal/interp"
	"kremlin/internal/limits"
	"kremlin/internal/source"
)

// Stage names the compilation stage that rejected a program.
type Stage int

// Compilation stages, in pipeline order.
const (
	// StageParse covers lexing and parsing: the program is not
	// syntactically well-formed Kr.
	StageParse Stage = iota
	// StageAnalysis covers everything after a successful parse: symbol
	// resolution, type checking, and IR lowering.
	StageAnalysis
)

func (s Stage) String() string {
	if s == StageParse {
		return "parse"
	}
	return "analysis"
}

// CompileError is a compilation failure tagged with the stage that
// produced it. Its message is the underlying diagnostic list verbatim.
type CompileError struct {
	Stage Stage
	Errs  *source.ErrorList
}

func (e *CompileError) Error() string { return e.Errs.Error() }
func (e *CompileError) Unwrap() error { return e.Errs }

// ErrorKind classifies any error out of the compile/run pipeline into the
// taxonomy shared by the CLIs (exit codes) and the serve daemon (HTTP
// status and response kind).
type ErrorKind int

// Error kinds, ordered by pipeline position.
const (
	// KindOther is an error outside the taxonomy (I/O, bad profile file).
	KindOther ErrorKind = iota
	// KindParse is a syntax error from the lexer or parser.
	KindParse
	// KindAnalysis is a semantic error: type checking or IR lowering.
	KindAnalysis
	// KindRuntime is a program execution error (division by zero, index
	// out of range).
	KindRuntime
	// KindLimit is a resource-limit failure: cancellation, deadline,
	// instruction budget, or memory cap (see the limits package).
	KindLimit
	// KindLint is a static-analysis rejection: the program compiles but
	// provably faults on every terminating run (see LintError).
	KindLint
)

func (k ErrorKind) String() string {
	switch k {
	case KindParse:
		return "parse"
	case KindAnalysis:
		return "analysis"
	case KindRuntime:
		return "runtime"
	case KindLimit:
		return "limit"
	case KindLint:
		return "lint"
	}
	return "other"
}

// Classify maps an error from Compile/Run/Profile onto the shared taxonomy.
func Classify(err error) ErrorKind {
	if err == nil {
		return KindOther
	}
	var ce *CompileError
	if errors.As(err, &ce) {
		if ce.Stage == StageParse {
			return KindParse
		}
		return KindAnalysis
	}
	var le *LintError
	if errors.As(err, &le) {
		return KindLint
	}
	if limits.IsLimit(err) {
		return KindLimit
	}
	var re *interp.RuntimeError
	if errors.As(err, &re) {
		return KindRuntime
	}
	return KindOther
}

// Exit codes shared by the kremlin and kremlin-run CLIs: one code per
// error kind, so scripts and CI can tell a malformed program from a
// runaway one without parsing stderr. Code 2 is reserved for usage errors
// (the flag package's convention).
const (
	ExitOK       = 0
	ExitOther    = 1
	ExitUsage    = 2
	ExitParse    = 3
	ExitAnalysis = 4
	ExitRuntime  = 5
	ExitLimit    = 6
	// ExitLint is the `kremlin lint` contract: findings were reported (or,
	// for the other commands, the program was rejected as provably faulting).
	ExitLint = 7
)

// ExitCodeFor maps an error onto the CLI exit-code contract.
func ExitCodeFor(err error) int {
	if err == nil {
		return ExitOK
	}
	switch Classify(err) {
	case KindParse:
		return ExitParse
	case KindAnalysis:
		return ExitAnalysis
	case KindRuntime:
		return ExitRuntime
	case KindLimit:
		return ExitLimit
	case KindLint:
		return ExitLint
	}
	return ExitOther
}
