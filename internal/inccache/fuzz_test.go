package inccache

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"kremlin/internal/profile"
)

// FuzzUnmarshalRecords feeds arbitrary payloads to the KRIC1 record
// decoder, with the FNV trailer recomputed so mutations get past the
// checksum. The contract under fuzzing: never panic; and an accepted file
// is exactly what marshalRecords writes for the records it decodes to.
func FuzzUnmarshalRecords(f *testing.F) {
	leaf := SliceEntry{FuncIdx: 1, Local: 2, Work: 7, CP: 3}
	root := SliceEntry{Work: 40, CP: 9, Children: []profile.Child{{Char: 0, Count: 5}}}
	recs := []*Record{
		{EntryDepth: 1, ArgBits: []uint64{3, 1 << 63}, RetBits: 12, Work: 40, Steps: 120,
			RawDelta: 6, PeakHeap: 64, RetDelta: 2, MaxDelta: 9,
			Funcs: []string{"", "helper"}, Slice: []SliceEntry{leaf, root}, RootIdx: 1},
		{Funcs: []string{""}, Slice: []SliceEntry{{Work: 1, CP: 1}}},
	}
	for _, rs := range [][]*Record{nil, recs[:1], recs} {
		data := marshalRecords(rs)
		f.Add(data[:len(data)-8])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		h := fnv.New64a()
		_, _ = h.Write(payload)
		data := binary.LittleEndian.AppendUint64(append([]byte(nil), payload...), h.Sum64())
		recs, ok := unmarshalRecords(data)
		if !ok {
			return
		}
		if out := marshalRecords(recs); !bytes.Equal(out, data) {
			t.Fatalf("accepted file does not round-trip:\nin:  %x\nout: %x", data, out)
		}
	})
}
