package irbundle_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"kremlin"
	"kremlin/internal/absint"
	"kremlin/internal/bench"
	"kremlin/internal/bytecode"
	"kremlin/internal/instrument"
	"kremlin/internal/irbundle"
	"kremlin/internal/regions"
)

// FuzzDecode feeds arbitrary payloads to the KRIB1 decoder, with the FNV
// trailer recomputed so mutations get past the checksum. The contract
// under fuzzing: never panic; and a module Decode accepts has only blocks
// that pass ir.Block.CheckShape, lowers through the back half to bytecode
// without a panic, and passes bytecode.Verify — the bytecode compiler
// assumes the shape rule instead of handling its violations.
func FuzzDecode(f *testing.F) {
	for _, name := range []string{"ep", "is", "cg"} {
		prog, err := kremlin.Compile(name+".kr", bench.ByName(name).Source)
		if err != nil {
			f.Fatal(err)
		}
		data := prog.EncodeBundle()
		f.Add(data[:len(data)-8])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		h := fnv.New64a()
		_, _ = h.Write(payload)
		data := binary.LittleEndian.AppendUint64(append([]byte(nil), payload...), h.Sum64())
		dec, err := irbundle.Decode(data)
		if err != nil {
			return
		}
		for _, fn := range dec.Module.Funcs {
			for _, b := range fn.Blocks {
				if err := b.CheckShape(); err != nil {
					t.Fatalf("accepted module breaks the block-shape rule: func %s: %v", fn.Name, err)
				}
			}
		}
		regs := regions.Analyze(dec.Module, dec.File)
		code := bytecode.Compile(dec.Module, regs, instrument.Build(regs), absint.Analyze(dec.Module))
		if err := bytecode.Verify(code); err != nil {
			t.Fatalf("accepted module fails bytecode verification: %v", err)
		}
	})
}
