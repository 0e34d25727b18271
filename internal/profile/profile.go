// Package profile holds the parallelism profile produced by an instrumented
// run: per-dynamic-region summaries (work, critical path length, children),
// compressed on line with the paper's dictionary scheme (§4.4).
//
// When a dynamic region exits, its tuple (static region, work, critical
// path, child sequence) is looked up in an alphabet of unique regions; a hit
// reuses the existing character, a miss extends the alphabet. Children are
// described in terms of already-interned characters, so the alphabet builds
// from the leaves up and the planner can compute self-parallelism directly
// on the dictionary without ever decompressing the trace.
//
// Children are kept as a run-length-encoded sequence in execution order,
// not a character-sorted multiset. For the dominant pattern — a loop whose
// iterations summarize identically — this is one run, so compression is
// unaffected; for irregular interleavings it preserves exactly the
// information the depth-window stitcher (internal/parallel) needs to align
// shard dictionaries instance-by-instance. All HCPA metrics are sums over
// the runs and do not depend on the order.
package profile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Child is one run of a parent's compressed child sequence: an alphabet
// character and how many consecutive dynamic instances of it occurred.
type Child struct {
	Char  int32
	Count int64
}

// Entry is one alphabet character: a unique dynamic-region summary.
type Entry struct {
	StaticID int32  // region ID in the static region tree
	Work     uint64 // total work executed between entry and exit
	CP       uint64 // critical path length at this region's nesting level
	// Children is the run-length-encoded child sequence in execution
	// order. The same character may appear in more than one run when other
	// children interleave; consumers must accumulate, not index by char.
	Children []Child
}

// RawRecordBytes is the size of one uncompressed dynamic-region trace
// record (static ID, work, CP, child instance link), used to report the
// log size an uncompressed tracer would have written.
const RawRecordBytes = 28

// Dict is the compression dictionary (the "alphabet").
type Dict struct {
	Entries []Entry
	index   map[string]int32
	// kidsBuf and keyBuf are InternRuns' reusable normalization and
	// key-encoding buffers.
	kidsBuf []Child
	keyBuf  []byte

	// RawCount is the number of dynamic region summaries interned,
	// i.e. the record count of the equivalent uncompressed trace.
	RawCount uint64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{index: make(map[string]int32)}
}

// Intern is InternRuns for callers holding an unordered character → count
// map (hand-built profiles in tests, multi-run aggregation): the runs are
// ordered by character, which is deterministic but carries no execution
// order. The instrumented runtime uses InternRuns directly.
func (d *Dict) Intern(staticID int32, work, cp uint64, children map[int32]int64) int32 {
	kids := make([]Child, 0, len(children))
	for c, n := range children {
		kids = append(kids, Child{Char: c, Count: n})
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Char < kids[j].Char })
	return d.InternRuns(staticID, work, cp, kids)
}

// InternRuns returns the character for the dynamic region summary whose
// child sequence is the given run-length encoding (execution order,
// normalized here by merging adjacent equal-character runs and dropping
// empty ones). The key is sequence-sensitive: the same children multiset
// with a different interleaving is a different entry. runs is not retained.
// A hit allocates nothing: the normalized runs and the key are built in
// reusable buffers, and the key is looked up without converting it to a
// string; the entry's child slice and the key string are made only for a
// new entry.
func (d *Dict) InternRuns(staticID int32, work, cp uint64, runs []Child) int32 {
	d.RawCount++
	kids := d.kidsBuf[:0]
	for _, r := range runs {
		if r.Count == 0 {
			continue
		}
		if n := len(kids); n > 0 && kids[n-1].Char == r.Char {
			kids[n-1].Count += r.Count
		} else {
			kids = append(kids, r)
		}
	}
	d.kidsBuf = kids

	key := binary.AppendUvarint(d.keyBuf[:0], uint64(staticID))
	key = binary.AppendUvarint(key, work)
	key = binary.AppendUvarint(key, cp)
	for _, k := range kids {
		key = binary.AppendUvarint(key, uint64(k.Char))
		key = binary.AppendUvarint(key, uint64(k.Count))
	}
	d.keyBuf = key
	if c, ok := d.index[string(key)]; ok {
		return c
	}
	c := int32(len(d.Entries))
	d.Entries = append(d.Entries, Entry{StaticID: staticID, Work: work, CP: cp,
		Children: append(make([]Child, 0, len(kids)), kids...)})
	d.index[string(key)] = c
	return c
}

// Profile is a complete parallelism profile: the dictionary plus one root
// character per profiled run (Kremlin supports aggregating multiple runs).
type Profile struct {
	Dict  *Dict
	Roots []int32
	// Safety is the static loop-dependence verdict per static region ID
	// (the numeric values of regions.Safety: 0 unproven, 1 proven,
	// 2 refuted), recorded by the compiler so profile consumers can annotate
	// plans without re-running the static analysis. Empty for profiles
	// written before the KRPF2 format or by tools without the verdicts.
	Safety []uint8
}

// New returns an empty profile.
func New() *Profile { return &Profile{Dict: NewDict()} }

// AddRoot records the root (main) character of one completed run.
func (p *Profile) AddRoot(c int32) { p.Roots = append(p.Roots, c) }

// InstanceCounts computes, for every character, how many dynamic region
// instances it stands for, by propagating multiplicities down from the
// roots. Because children are always interned before their parents, a
// single descending sweep suffices.
func (p *Profile) InstanceCounts() []int64 {
	counts := make([]int64, len(p.Dict.Entries))
	for _, r := range p.Roots {
		counts[r]++
	}
	for c := len(p.Dict.Entries) - 1; c >= 0; c-- {
		n := counts[c]
		if n == 0 {
			continue
		}
		for _, k := range p.Dict.Entries[c].Children {
			counts[k.Char] += n * k.Count
		}
	}
	return counts
}

// TotalWork returns the summed work of the root runs.
func (p *Profile) TotalWork() uint64 {
	var w uint64
	for _, r := range p.Roots {
		w += p.Dict.Entries[r].Work
	}
	return w
}

// RawBytes reports the size of the uncompressed trace an instance-per-record
// tracer would have produced.
func (p *Profile) RawBytes() uint64 { return p.Dict.RawCount * RawRecordBytes }

// Merge folds other into p, re-interning other's alphabet. Used for
// multi-run aggregation: run the instrumented binary on several inputs and
// plan over the union.
func (p *Profile) Merge(other *Profile) {
	remap := make([]int32, len(other.Dict.Entries))
	for c, e := range other.Dict.Entries {
		runs := make([]Child, len(e.Children))
		for i, k := range e.Children {
			runs[i] = Child{Char: remap[k.Char], Count: k.Count}
		}
		remap[c] = p.Dict.InternRuns(e.StaticID, e.Work, e.CP, runs)
	}
	// Interning during a merge double-counts raw records; correct to the
	// true dynamic-instance count.
	p.Dict.RawCount += other.Dict.RawCount - uint64(len(other.Dict.Entries))
	for _, r := range other.Roots {
		p.Roots = append(p.Roots, remap[r])
	}
	// Safety is a compile-time property of the static region tree, identical
	// across runs of the same program; adopt other's if p has none.
	if len(p.Safety) == 0 {
		p.Safety = append([]uint8(nil), other.Safety...)
	}
}

// The serialized formats. KRPF2 appends a safety-verdict section after the
// roots; KRPF1 files (without it) still read back.
const (
	magic   = "KRPF2\n"
	magicV1 = "KRPF1\n"
)

// WriteTo serializes the profile in a compact varint format.
func (p *Profile) WriteTo(w io.Writer) (int64, error) {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	buf = append(buf, magic...)
	put(uint64(len(p.Dict.Entries)))
	for _, e := range p.Dict.Entries {
		put(uint64(e.StaticID))
		put(e.Work)
		put(e.CP)
		put(uint64(len(e.Children)))
		for _, k := range e.Children {
			put(uint64(k.Char))
			put(uint64(k.Count))
		}
	}
	put(p.Dict.RawCount)
	put(uint64(len(p.Roots)))
	for _, r := range p.Roots {
		put(uint64(r))
	}
	put(uint64(len(p.Safety)))
	for _, s := range p.Safety {
		put(uint64(s))
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// MarshalSize returns the serialized size in bytes (the paper's
// "compressed log size").
func (p *Profile) MarshalSize() uint64 {
	var cw countWriter
	_, _ = p.WriteTo(&cw)
	return cw.n
}

type countWriter struct{ n uint64 }

func (c *countWriter) Write(b []byte) (int, error) {
	c.n += uint64(len(b))
	return len(b), nil
}

// ReadFrom deserializes a profile written by WriteTo.
func ReadFrom(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic) {
		return nil, errors.New("profile: bad magic")
	}
	version := 0
	switch string(data[:len(magic)]) {
	case magic:
		version = 2
	case magicV1:
		version = 1
	default:
		return nil, errors.New("profile: bad magic")
	}
	data = data[len(magic):]
	pos := 0
	get := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("profile: truncated at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	p := New()
	nEntries, err := get()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nEntries; i++ {
		var e Entry
		sid, err := get()
		if err != nil {
			return nil, err
		}
		e.StaticID = int32(sid)
		if e.Work, err = get(); err != nil {
			return nil, err
		}
		if e.CP, err = get(); err != nil {
			return nil, err
		}
		nk, err := get()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nk; j++ {
			ch, err := get()
			if err != nil {
				return nil, err
			}
			cnt, err := get()
			if err != nil {
				return nil, err
			}
			if int32(ch) >= int32(i) {
				return nil, fmt.Errorf("profile: entry %d references forward child %d", i, ch)
			}
			e.Children = append(e.Children, Child{Char: int32(ch), Count: int64(cnt)})
		}
		p.Dict.InternRuns(e.StaticID, e.Work, e.CP, e.Children)
	}
	raw, err := get()
	if err != nil {
		return nil, err
	}
	p.Dict.RawCount = raw
	nRoots, err := get()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nRoots; i++ {
		r, err := get()
		if err != nil {
			return nil, err
		}
		if r >= nEntries {
			return nil, fmt.Errorf("profile: root %d out of range", r)
		}
		p.AddRoot(int32(r))
	}
	if version >= 2 {
		nSafety, err := get()
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < nSafety; i++ {
			v, err := get()
			if err != nil {
				return nil, err
			}
			if v > 2 {
				return nil, fmt.Errorf("profile: bad safety verdict %d for region %d", v, i)
			}
			p.Safety = append(p.Safety, uint8(v))
		}
	}
	return p, nil
}
