// On-disk layout of the incremental cache.
//
// The cache directory holds one file per content key, named
// <32 hex digits>.kric. Each file is:
//
//	"KRIC1\n"                magic
//	uvarint version          (currently 1)
//	uvarint record count
//	records                  (all integers uvarint, strings length-prefixed)
//	8 bytes LE               FNV-64a of everything before the trailer
//
// Failure semantics: any deviation — bad magic, unknown version, truncated
// payload, checksum mismatch, or a structurally invalid record (forward
// child reference, out-of-range index, absurd size) — causes the whole file
// to be deleted and counted as corrupt. Corruption is repaired, never
// propagated: a damaged entry degrades to a cache miss and the next
// successful run rewrites the file. Parsing is fully bounds-checked and
// never panics on arbitrary bytes.
package inccache

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"kremlin/internal/irhash"
	"kremlin/internal/profile"
)

const (
	diskMagic   = "KRIC1\n"
	diskVersion = 1

	maxFuncsPerRecord = 1 << 12
	maxNameLen        = 1 << 12
	maxChildrenPerEnt = 1 << 16
)

// Dir returns the cache directory path.
func (s *Store) Dir() string { return s.dir }

func (s *Store) loadAll() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".kric") {
			continue
		}
		path := filepath.Join(s.dir, name)
		key, ok := parseKey(strings.TrimSuffix(name, ".kric"))
		if !ok {
			s.discard(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			s.discard(path)
			continue
		}
		recs, ok := unmarshalRecords(data)
		if !ok {
			s.discard(path)
			continue
		}
		s.recs[key] = recs
		s.nRecords += len(recs)
	}
	return nil
}

// discard removes a cache file that failed validation and counts it.
func (s *Store) discard(path string) {
	_ = os.Remove(path)
	s.corrupt++
}

// Save writes every dirty key's records back to disk atomically
// (temp file + rename). The first I/O error is returned, but all dirty
// keys are attempted; the cache stays best-effort.
func (s *Store) Save() error {
	s.mu.Lock()
	type pending struct {
		key  Key
		recs []*Record
	}
	var work []pending
	for k := range s.dirty {
		work = append(work, pending{key: k, recs: s.recs[k]})
	}
	s.dirty = make(map[Key]bool)
	s.mu.Unlock()

	var firstErr error
	for _, p := range work {
		data := marshalRecords(p.recs)
		path := filepath.Join(s.dir, p.key.String()+".kric")
		tmp := path + ".tmp"
		err := os.WriteFile(tmp, data, 0o644)
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func marshalRecords(recs []*Record) []byte {
	c := &irhash.Canon{Buf: make([]byte, 0, 256)}
	c.Buf = append(c.Buf, diskMagic...)
	c.U(diskVersion)
	c.U(uint64(len(recs)))
	for _, r := range recs {
		c.U(uint64(r.EntryDepth))
		c.U(uint64(len(r.ArgBits)))
		for _, a := range r.ArgBits {
			c.U(a)
		}
		c.U(r.RetBits)
		c.U(r.Work)
		c.U(r.Steps)
		c.U(r.RawDelta)
		c.U(r.PeakHeap)
		c.U(r.RetDelta)
		c.U(r.MaxDelta)
		c.U(uint64(len(r.Funcs)))
		for _, f := range r.Funcs {
			c.S(f)
		}
		c.U(uint64(len(r.Slice)))
		for _, e := range r.Slice {
			c.U(uint64(e.FuncIdx))
			c.U(uint64(e.Local))
			c.U(e.Work)
			c.U(e.CP)
			c.U(uint64(len(e.Children)))
			for _, ch := range e.Children {
				c.U(uint64(ch.Char))
				c.U(uint64(ch.Count))
			}
		}
		c.U(uint64(r.RootIdx))
	}
	h := fnv.New64a()
	_, _ = h.Write(c.Buf)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	return append(c.Buf, sum[:]...)
}

// reader is a bounds-checked varint cursor; any overrun latches err.
type reader struct {
	b   []byte
	off int
	err bool
}

func (r *reader) u() uint64 {
	if r.err {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	// A final zero byte pads the varint, which marshalRecords never does.
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.err = true
		return 0
	}
	r.off += n
	return v
}

// n returns a size field, latching err beyond limit.
func (r *reader) n(limit uint64) int {
	v := r.u()
	if v > limit {
		r.err = true
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.n(maxNameLen)
	if r.err || r.off+n > len(r.b) {
		r.err = true
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func unmarshalRecords(data []byte) ([]*Record, bool) {
	if len(data) < len(diskMagic)+8 || string(data[:len(diskMagic)]) != diskMagic {
		return nil, false
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	_, _ = h.Write(payload)
	if binary.LittleEndian.Uint64(trailer) != h.Sum64() {
		return nil, false
	}
	r := &reader{b: payload, off: len(diskMagic)}
	if r.u() != diskVersion {
		return nil, false
	}
	nrecs := r.n(maxRecordsPerKey)
	recs := make([]*Record, 0, nrecs)
	for i := 0; i < nrecs && !r.err; i++ {
		rec := &Record{}
		rec.EntryDepth = r.n(1 << 10)
		nargs := r.n(maxArgs)
		rec.ArgBits = make([]uint64, nargs)
		for j := range rec.ArgBits {
			rec.ArgBits[j] = r.u()
		}
		rec.RetBits = r.u()
		rec.Work = r.u()
		rec.Steps = r.u()
		rec.RawDelta = r.u()
		rec.PeakHeap = r.u()
		rec.RetDelta = r.u()
		rec.MaxDelta = r.u()
		nf := r.n(maxFuncsPerRecord)
		rec.Funcs = make([]string, nf)
		for j := range rec.Funcs {
			rec.Funcs[j] = r.str()
		}
		if nf == 0 || (len(rec.Funcs) > 0 && rec.Funcs[0] != "") {
			return nil, false
		}
		ns := r.n(maxSliceEntries)
		rec.Slice = make([]SliceEntry, 0, ns)
		for j := 0; j < ns && !r.err; j++ {
			var e SliceEntry
			e.FuncIdx = int32(r.n(uint64(nf) - 1))
			e.Local = int32(r.n(1 << 30))
			e.Work = r.u()
			e.CP = r.u()
			nc := r.n(maxChildrenPerEnt)
			e.Children = make([]profile.Child, 0, nc)
			for k := 0; k < nc && !r.err; k++ {
				ch := r.u()
				cnt := r.u()
				if ch >= uint64(j) {
					// Forward (or self) child reference: structurally invalid.
					return nil, false
				}
				e.Children = append(e.Children, profile.Child{Char: int32(ch), Count: int64(cnt)})
			}
			rec.Slice = append(rec.Slice, e)
		}
		rec.RootIdx = int32(r.n(uint64(ns)))
		if !r.err && (ns == 0 || int(rec.RootIdx) >= ns) {
			return nil, false
		}
		recs = append(recs, rec)
	}
	if r.err || r.off != len(payload) {
		return nil, false
	}
	return recs, true
}
