package profile

import (
	"bytes"
	"testing"
)

// FuzzReadFrom feeds arbitrary bytes to the KRPF reader. The contract under
// fuzzing: never panic; and when a file is accepted, every root and child
// names an entry in range (children an earlier one), and WriteTo writes the
// file back byte for byte — ReadFrom accepts exactly what WriteTo writes.
func FuzzReadFrom(f *testing.F) {
	var buf bytes.Buffer
	_, _ = buildSample().WriteTo(&buf)
	f.Add(buf.Bytes())
	withSafety := buildSample()
	withSafety.Safety = []uint8{0, 1, 2}
	buf.Reset()
	_, _ = withSafety.WriteTo(&buf)
	f.Add(buf.Bytes())
	buf.Reset()
	_, _ = New().WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte("not a profile"))
	// Two identical entries, the second one the root.
	f.Add([]byte(magic + "\x02\x00\x01\x01\x00\x00\x01\x01\x00\x02\x01\x01\x00"))
	// A child character of 2^32-1.
	f.Add([]byte(magic + "\x02\x00\x01\x01\x00\x00\x05\x02\x01\xff\xff\xff\xff\x0f\x01\x02\x01\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := int32(len(p.Dict.Entries))
		for _, r := range p.Roots {
			if r < 0 || r >= n {
				t.Fatalf("root %d out of range [0,%d)", r, n)
			}
		}
		for c, e := range p.Dict.Entries {
			for _, k := range e.Children {
				if k.Char < 0 || k.Char >= int32(c) {
					t.Fatalf("entry %d: child %d out of range [0,%d)", c, k.Char, c)
				}
			}
		}
		var out bytes.Buffer
		if _, err := p.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted file does not round-trip:\nin:  %x\nout: %x", data, out.Bytes())
		}
	})
}
