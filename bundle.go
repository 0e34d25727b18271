package kremlin

import (
	"bytes"
	"fmt"

	"kremlin/internal/bytecode"
	"kremlin/internal/frontcache"
	"kremlin/internal/irbundle"
	"kremlin/internal/source"
)

// EncodeBundle serializes the compiled program to a portable KRIB1 IR
// bundle: the post-front-end module (with analysis annotations and the
// exact value/block numbering) plus the source line structure, so
// CompileBundle reconstructs a Program whose regions, instrumentation,
// bytecode, profiles, and incremental-cache keys are identical to this
// one's. This is what `kremlin-cc -emit-ir` writes and what the daemon
// accepts as a precompiled submission.
func (p *Program) EncodeBundle() []byte {
	return irbundle.Encode(p.File, p.Module)
}

// IsBundle reports whether data starts with the KRIB1 bundle magic —
// how the daemon distinguishes a precompiled submission from Kr source.
func IsBundle(data []byte) bool {
	return bytes.HasPrefix(data, []byte(irbundle.Magic))
}

// CompileBundle reconstructs a Program from a KRIB1 bundle, skipping the
// whole front end (lex/parse/typecheck/irbuild/analysis). The bundle is
// untrusted input: the decoder bounds-checks every read, a structural/
// type/SSA validator rejects any module the compiler could not have
// produced, and the lowered bytecode must pass the bytecode verifier
// before the Program is returned. Failures come back as *CompileError —
// StageParse for a malformed or invalid bundle, StageAnalysis for one
// that decodes but does not lower to verifiable bytecode — so callers
// (the CLIs' exit codes, the daemon's HTTP taxonomy) treat bundles
// exactly like source.
func CompileBundle(data []byte) (*Program, error) {
	return CompileBundleWith(data, nil)
}

// CompileBundleWith is CompileBundle through a front cache scope (see
// CompileOptions.FrontCache); nil compiles uncached.
func CompileBundleWith(data []byte, front *frontcache.Scope) (p *Program, err error) {
	defer func() {
		// The back-half passes assume compiler-produced IR; the validator
		// is meant to guarantee that, but a residual panic on a hostile
		// bundle must degrade to a diagnostic, not take down the caller.
		if r := recover(); r != nil {
			p, err = nil, bundleError(StageAnalysis, fmt.Errorf("bundle lowering panicked: %v", r))
		}
	}()
	dec, derr := irbundle.Decode(data)
	if derr != nil {
		return nil, bundleError(StageParse, derr)
	}
	p = &Program{File: dec.File, Module: dec.Module}
	p.analyze(front)
	if verr := bytecode.Verify(p.Bytecode()); verr != nil {
		return nil, bundleError(StageAnalysis, fmt.Errorf("bytecode verification: %w", verr))
	}
	return p, nil
}

func bundleError(stage Stage, err error) *CompileError {
	errs := &source.ErrorList{}
	errs.Add("bundle", source.Pos{Offset: 0, Line: 1, Col: 1}, "%s", err.Error())
	return &CompileError{Stage: stage, Errs: errs}
}
