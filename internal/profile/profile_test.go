package profile

import (
	"bytes"
	"testing"
	"testing/quick"
)

// buildSample builds a small profile: root -> 3x loop -> (2x body each).
func buildSample() *Profile {
	p := New()
	body := p.Dict.Intern(5, 10, 4, nil)
	loop := p.Dict.Intern(3, 25, 6, map[int32]int64{body: 2})
	root := p.Dict.Intern(0, 100, 30, map[int32]int64{loop: 3})
	p.AddRoot(root)
	return p
}

func TestInternDeduplicates(t *testing.T) {
	d := NewDict()
	a := d.Intern(1, 10, 5, nil)
	b := d.Intern(1, 10, 5, nil)
	c := d.Intern(1, 10, 6, nil)
	if a != b {
		t.Errorf("identical summaries got chars %d and %d", a, b)
	}
	if a == c {
		t.Error("different cp should get a new char")
	}
	if d.RawCount != 3 {
		t.Errorf("RawCount = %d, want 3", d.RawCount)
	}
	if len(d.Entries) != 2 {
		t.Errorf("alphabet = %d, want 2", len(d.Entries))
	}
}

func TestInternChildOrderIrrelevant(t *testing.T) {
	d := NewDict()
	c1 := d.Intern(1, 1, 1, nil)
	c2 := d.Intern(2, 2, 2, nil)
	// Maps have no order; interning the same multiset twice must hit.
	a := d.Intern(3, 10, 5, map[int32]int64{c1: 1, c2: 2})
	b := d.Intern(3, 10, 5, map[int32]int64{c2: 2, c1: 1})
	if a != b {
		t.Error("child order changed the character")
	}
}

func TestInstanceCounts(t *testing.T) {
	p := buildSample()
	counts := p.InstanceCounts()
	if counts[2] != 1 { // root
		t.Errorf("root count = %d", counts[2])
	}
	if counts[1] != 3 { // loops
		t.Errorf("loop count = %d", counts[1])
	}
	if counts[0] != 6 { // bodies: 3 loops x 2
		t.Errorf("body count = %d", counts[0])
	}
}

func TestTotalWorkAndRawBytes(t *testing.T) {
	p := buildSample()
	if p.TotalWork() != 100 {
		t.Errorf("TotalWork = %d", p.TotalWork())
	}
	if p.RawBytes() != 3*RawRecordBytes {
		t.Errorf("RawBytes = %d", p.RawBytes())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	p := buildSample()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if uint64(buf.Len()) != p.MarshalSize() {
		t.Errorf("MarshalSize = %d, wrote %d", p.MarshalSize(), buf.Len())
	}
	q, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Dict.Entries) != len(p.Dict.Entries) {
		t.Fatalf("entries = %d, want %d", len(q.Dict.Entries), len(p.Dict.Entries))
	}
	for i := range p.Dict.Entries {
		a, b := p.Dict.Entries[i], q.Dict.Entries[i]
		if a.StaticID != b.StaticID || a.Work != b.Work || a.CP != b.CP || len(a.Children) != len(b.Children) {
			t.Errorf("entry %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if len(q.Roots) != 1 || q.Roots[0] != p.Roots[0] {
		t.Errorf("roots = %v", q.Roots)
	}
	if q.Dict.RawCount != p.Dict.RawCount {
		t.Errorf("RawCount = %d, want %d", q.Dict.RawCount, p.Dict.RawCount)
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadFrom(bytes.NewReader([]byte(magic))); err == nil {
		t.Error("truncated profile accepted")
	}
	// Forward-referencing child.
	var buf bytes.Buffer
	p := buildSample()
	_, _ = p.WriteTo(&buf)
	data := buf.Bytes()
	data = data[:len(data)-3] // chop the roots
	if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
		t.Error("truncated tail accepted")
	}
}

func TestMerge(t *testing.T) {
	p := buildSample()
	q := buildSample()
	rawBefore := p.Dict.RawCount
	p.Merge(q)
	if len(p.Roots) != 2 {
		t.Fatalf("roots after merge = %d", len(p.Roots))
	}
	// Identical structure: alphabet must not grow.
	if len(p.Dict.Entries) != 3 {
		t.Errorf("alphabet after merge = %d, want 3", len(p.Dict.Entries))
	}
	if p.TotalWork() != 200 {
		t.Errorf("merged work = %d", p.TotalWork())
	}
	if p.Dict.RawCount != rawBefore+q.Dict.RawCount {
		t.Errorf("raw count = %d, want %d", p.Dict.RawCount, rawBefore+q.Dict.RawCount)
	}
	// Counts double.
	counts := p.InstanceCounts()
	if counts[0] != 12 || counts[1] != 6 || counts[2] != 2 {
		t.Errorf("merged counts = %v", counts)
	}
}

func TestMergeDisjoint(t *testing.T) {
	p := buildSample()
	q := New()
	leaf := q.Dict.Intern(9, 7, 7, nil)
	root := q.Dict.Intern(0, 50, 50, map[int32]int64{leaf: 1})
	q.AddRoot(root)
	p.Merge(q)
	if len(p.Dict.Entries) != 5 {
		t.Errorf("alphabet = %d, want 5", len(p.Dict.Entries))
	}
	if p.TotalWork() != 150 {
		t.Errorf("work = %d", p.TotalWork())
	}
}

// TestRoundTripProperty: random well-formed profiles survive
// serialization.
func TestRoundTripProperty(t *testing.T) {
	check := func(works []uint16, seed uint8) bool {
		if len(works) == 0 {
			return true
		}
		if len(works) > 24 {
			works = works[:24]
		}
		p := New()
		var chars []int32
		for i, w := range works {
			kids := map[int32]int64{}
			// Reference up to two earlier chars (keeps leaves-first shape).
			if len(chars) > 0 {
				kids[chars[int(seed)%len(chars)]] = int64(w%3) + 1
			}
			if len(chars) > 1 && w%2 == 0 {
				kids[chars[(int(seed)+1)%len(chars)]] += int64(w%5) + 1
			}
			c := p.Dict.Intern(int32(i%7), uint64(w)+1, uint64(w)/2+1, kids)
			chars = append(chars, c)
		}
		p.AddRoot(chars[len(chars)-1])
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			return false
		}
		q, err := ReadFrom(&buf)
		if err != nil {
			return false
		}
		if len(q.Dict.Entries) != len(p.Dict.Entries) || len(q.Roots) != len(p.Roots) {
			return false
		}
		pc, qc := p.InstanceCounts(), q.InstanceCounts()
		for i := range pc {
			if pc[i] != qc[i] {
				return false
			}
		}
		return q.TotalWork() == p.TotalWork()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInternRunsNormalizesAndHitsWithoutAllocating: run sequences that
// normalize alike (adjacent equal runs merged, empty runs dropped) intern
// to one character with the merged children, and a repeat lookup — the
// common case, one per dynamic region exit — allocates nothing.
func TestInternRunsNormalizesAndHitsWithoutAllocating(t *testing.T) {
	d := NewDict()
	a := d.InternRuns(1, 0, 0, nil)
	b := d.InternRuns(1, 0, 0, nil)
	if a != b {
		t.Fatalf("leaf interned twice: %d vs %d", a, b)
	}
	split := []Child{{Char: a, Count: 2}, {Char: 9, Count: 0}, {Char: a, Count: 3}, {Char: 7, Count: 1}}
	merged := []Child{{Char: a, Count: 5}, {Char: 7, Count: 1}}
	c := d.InternRuns(2, 10, 4, split)
	if got := d.InternRuns(2, 10, 4, merged); got != c {
		t.Fatalf("normalized runs interned to %d, split runs to %d", got, c)
	}
	if kids := d.Entries[c].Children; len(kids) != 2 || kids[0] != merged[0] || kids[1] != merged[1] {
		t.Fatalf("children = %v, want %v", kids, merged)
	}
	if d.InternRuns(2, 10, 4, merged[:1]) == c || d.InternRuns(2, 10, 5, merged) == c {
		t.Fatal("distinct summaries share a character")
	}
	if n := testing.AllocsPerRun(100, func() { d.InternRuns(2, 10, 4, split) }); n != 0 {
		t.Errorf("InternRuns hit allocates %.1f times, want 0", n)
	}
}
