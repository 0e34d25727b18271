// Package inccache is the incremental re-profiling cache: a
// content-addressed store of recorded call extents that lets a profiling
// run skip the execution of functions whose IR (transitively) has not
// changed since a previous run, splicing their cached HCPA sub-profiles
// into the live dictionary instead. The output is byte-identical to a full
// re-run — the cache is a pure execution shortcut, never an approximation.
//
// Soundness rests on three pillars:
//
//  1. Only *sealed* functions are cached (see funcFact): no global state,
//     no RNG, no output, scalar arguments. Their extent is a pure function
//     of the argument values.
//  2. A recorded extent is keyed by the function's transitive canonical-IR
//     hash, the region-stack depth at entry, and the exact argument bit
//     patterns. Recording is always sound: at levels at or above the entry
//     depth every external vector reads zero, so the recorded dictionary
//     subtree never depends on when the arguments became available.
//  3. *Replaying* a record additionally requires the arguments to be timely
//     at the call site (kremlib.ArgsTimely): then every time the extent
//     would have produced at a caller level is exactly the control time
//     plus a recorded constant, and kremlib.ApplySkippedCall reproduces the
//     caller-visible effects without executing a single callee instruction.
//
// What a record stores is a dictionary *slice*: the entries the extent
// interned, in first-touch order, with children remapped to slice-local
// indices and static regions named by (function, local region index) so the
// slice survives region-ID renumbering when unrelated code is edited.
// Replaying interns the slice in order — a valid topological order, since
// any entry touched in the extent had its children interned earlier in the
// same extent — which reproduces the exact dictionary the full run would
// have built, including intern order and raw-record counts.
package inccache

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"kremlin/internal/ir"
	"kremlin/internal/irhash"
	"kremlin/internal/kremlib"
	"kremlin/internal/profile"
	"kremlin/internal/regions"
	"kremlin/internal/shadow"
)

const (
	// maxRecordsPerKey bounds the distinct (depth, args) contexts kept per
	// function hash, so one polymorphic hot function cannot grow a cache
	// file without bound.
	maxRecordsPerKey = 64
	// maxRecorderDepth bounds concurrently open recordings (nested sealed
	// calls record independently; deeper nesting is recorded on later runs).
	maxRecorderDepth = 8
	// maxSliceEntries aborts recording of extents whose dictionary footprint
	// is too large to be worth caching.
	maxSliceEntries = 1 << 16
	// maxArgs bounds the argument vector of cacheable calls.
	maxArgs = 64
)

// SliceEntry is one dictionary entry of a recorded extent. Children
// reference earlier slice entries by index, and the static region is named
// portably as (function, local region index): the i-th region, in static
// region-tree ID order, belonging to that function.
type SliceEntry struct {
	FuncIdx  int32 // index into Record.Funcs; 0 names the function being replayed
	Local    int32
	Work, CP uint64
	Children []profile.Child // Child.Char is a slice-local index
}

// Record is one cached call extent.
type Record struct {
	EntryDepth int
	ArgBits    []uint64
	RetBits    uint64
	Work       uint64 // total work of the extent
	Steps      uint64 // interpreter steps of the extent
	RawDelta   uint64 // dynamic region summaries interned during the extent
	PeakHeap   uint64 // peak heap growth above the heap mark at entry
	RetDelta   uint64 // return availability above control time
	MaxDelta   uint64 // extent span above control time (root region CP)
	Funcs      []string
	Slice      []SliceEntry
	RootIdx    int32 // slice index of the extent's root (function-region) entry
}

// Key is a function's transitive content key (irhash.Key).
type Key = irhash.Key

// parseKey inverts Key.String, rejecting anything that is not exactly 32
// lower-case hex digits.
func parseKey(s string) (Key, bool) {
	var k Key
	if len(s) != 2*len(k) {
		return k, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, false
	}
	copy(k[:], b)
	return k, true
}

// funcFact is the per-function verdict of the content analysis: the
// transitive key plus whether the function is sealed — a deterministic pure
// sub-computation whose dynamic extent the cache may record and replay.
type funcFact = irhash.Func

// Stats counts one session's cache traffic.
type Stats struct {
	Lookups      uint64 `json:"lookups"`
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Untimely     uint64 `json:"untimely"`    // key matched but arguments not timely
	Budget       uint64 `json:"budget"`      // key matched but step/heap budget forbids skipping
	Unsplicable  uint64 `json:"unsplicable"` // record does not resolve against this program
	Recorded     uint64 `json:"recorded"`    // new records captured this run
	SkippedSteps uint64 `json:"skipped_steps"`
	SkippedWork  uint64 `json:"skipped_work"`
	StoreRecords int    `json:"store_records"`
	Corrupt      int    `json:"corrupt_entries"` // cache files rejected and repaired at open
	Evicted      int    `json:"evicted_records"` // records displaced by the size bound
}

// HitRate returns Hits/Lookups, or 0 with no lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// regionLoc names a static region portably: the local-th region, in ID
// order, of function fn.
type regionLoc struct {
	fn    *ir.Func
	local int32
}

// modInfo is one session's module analysis: content facts per function
// plus the two region-ID translation tables.
type modInfo struct {
	facts map[*ir.Func]*funcFact
	// regionOf maps a global static region ID to its portable name.
	regionOf []regionLoc
	// funcRegions maps a function name to its global region IDs in ID order.
	funcRegions map[string][]int32
}

// newModInfo builds the module analysis from the module's content hashes.
func newModInfo(regs *regions.Program, hashes *irhash.Module) *modInfo {
	mi := &modInfo{
		facts:       hashes.Funcs,
		regionOf:    make([]regionLoc, len(regs.Regions)),
		funcRegions: make(map[string][]int32, len(regs.Module.Funcs)),
	}
	for _, r := range regs.Regions {
		if r == nil || r.Func == nil {
			continue
		}
		name := r.Func.Name
		mi.regionOf[r.ID] = regionLoc{fn: r.Func, local: int32(len(mi.funcRegions[name]))}
		mi.funcRegions[name] = append(mi.funcRegions[name], int32(r.ID))
	}
	return mi
}

// Store is the on-disk cache: records grouped by content key, one file per
// key under dir. A Store is safe for concurrent sessions (the serve daemon
// shares one across jobs).
type Store struct {
	dir string

	mu         sync.Mutex
	recs       map[Key][]*Record
	dirty      map[Key]bool
	corrupt    int
	nRecords   int
	maxRecords int            // 0 = unbounded
	lastUse    map[Key]uint64 // LRU clock value per key
	useClock   uint64
	evicted    int // records displaced by the bound
}

// Open loads (or creates) the cache directory. Unreadable, truncated,
// corrupted, or version-skewed cache files are deleted (counted in Stats
// Corrupt) and treated as misses; Open never fails because of bad cache
// content, only on I/O errors creating the directory itself.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:     dir,
		recs:    make(map[Key][]*Record),
		dirty:   make(map[Key]bool),
		lastUse: make(map[Key]uint64),
	}
	if err := s.loadAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// Session prepares a profiling session for one compiled program against the
// store. hashes are the module's content hashes (irhash.Analyze of
// regs.Module), computed once per program by its owner.
//
// A non-empty scope isolates the keyspace: every content key this session
// reads or writes is mixed with a salt derived from scope, so records
// recorded under one scope are invisible to every other. The empty scope is
// the unsalted global keyspace. The serve daemon passes the tenant name,
// giving each tenant a private keyspace inside one shared bounded store —
// one tenant's traffic can evict another's records (the size bound is
// global) but can never replay them.
func (s *Store) Session(regs *regions.Program, hashes *irhash.Module, scope string) *Session {
	sess := &Session{store: s, info: newModInfo(regs, hashes)}
	if scope != "" {
		sum := sha256.Sum256([]byte("kremlin-inccache-scope\x00" + scope))
		copy(sess.salt[:], sum[:len(sess.salt)])
		sess.scoped = true
		sess.scopedKeys = make(map[*funcFact]Key)
	}
	return sess
}

// SetMaxRecords bounds the store to n records (0 = unbounded). When an
// insert pushes the store over the bound, whole least-recently-used keys
// are evicted — memory, dirty state, and their on-disk files — until the
// bound holds again. Eviction is counted in Stats.Evicted.
func (s *Store) SetMaxRecords(n int) {
	s.mu.Lock()
	s.maxRecords = n
	victims := s.enforceBoundLocked(Key{})
	s.mu.Unlock()
	s.removeFiles(victims)
}

// EvictedCount returns how many records the size bound has displaced.
func (s *Store) EvictedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// enforceBoundLocked evicts least-recently-used keys until the record bound
// holds, sparing protect (the key just touched). Returns the evicted keys;
// the caller removes their files outside the lock.
func (s *Store) enforceBoundLocked(protect Key) []Key {
	if s.maxRecords <= 0 || s.nRecords <= s.maxRecords {
		return nil
	}
	type cand struct {
		key Key
		use uint64
	}
	cands := make([]cand, 0, len(s.recs))
	for k := range s.recs {
		if k != protect {
			cands = append(cands, cand{k, s.lastUse[k]})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].use < cands[j].use })
	var out []Key
	for _, c := range cands {
		if s.nRecords <= s.maxRecords {
			break
		}
		n := len(s.recs[c.key])
		delete(s.recs, c.key)
		delete(s.dirty, c.key)
		delete(s.lastUse, c.key)
		s.nRecords -= n
		s.evicted += n
		out = append(out, c.key)
	}
	return out
}

func (s *Store) removeFiles(keys []Key) {
	for _, k := range keys {
		_ = os.Remove(filepath.Join(s.dir, k.String()+".kric"))
	}
}

func (s *Store) touchLocked(key Key) {
	s.useClock++
	s.lastUse[key] = s.useClock
}

func (s *Store) lookup(key Key, depth int, args []uint64) *Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recs[key] {
		if r.EntryDepth == depth && argsEqual(r.ArgBits, args) {
			s.touchLocked(key)
			return r
		}
	}
	return nil
}

// canInsert reports whether a recording for this context is worth starting:
// no record for it exists yet and the per-key cap has room.
func (s *Store) canInsert(key Key, depth int, args []uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	lst := s.recs[key]
	if len(lst) >= maxRecordsPerKey {
		return false
	}
	for _, r := range lst {
		if r.EntryDepth == depth && argsEqual(r.ArgBits, args) {
			return false
		}
	}
	return true
}

func (s *Store) insert(key Key, rec *Record) bool {
	s.mu.Lock()
	lst := s.recs[key]
	if len(lst) >= maxRecordsPerKey {
		s.mu.Unlock()
		return false
	}
	for _, r := range lst {
		if r.EntryDepth == rec.EntryDepth && argsEqual(r.ArgBits, rec.ArgBits) {
			s.mu.Unlock()
			return false
		}
	}
	s.recs[key] = append(lst, rec)
	s.dirty[key] = true
	s.nRecords++
	s.touchLocked(key)
	victims := s.enforceBoundLocked(key)
	s.mu.Unlock()
	s.removeFiles(victims)
	return true
}

func argsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Keys returns every function's transitive content key by name — the
// debug/test surface behind -cache-stats.
func (s *Store) Keys(regs *regions.Program) map[string]string {
	facts := irhash.Analyze(regs.Module).Funcs
	out := make(map[string]string, len(facts))
	for f, fact := range facts {
		out[f.Name] = fact.Key.String()
	}
	return out
}

// SealedFuncs returns the names of the functions whose call extents the
// cache may record and replay, sorted.
func (s *Store) SealedFuncs(regs *regions.Program) []string {
	var out []string
	for f, fact := range irhash.Analyze(regs.Module).Funcs {
		if fact.Sealed {
			out = append(out, f.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Records returns the total record count (test/stats surface).
func (s *Store) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nRecords
}

// CorruptCount returns how many cache files were rejected and repaired.
func (s *Store) CorruptCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// Hit is what the engine needs to account for a skipped call: the steps and
// peak heap growth the extent would have consumed, and the return value.
type Hit struct {
	Steps    uint64
	PeakHeap uint64
	RetBits  uint64
}

// Session is the per-run face of the cache: it binds to one runtime and
// profile, observes interned characters to record fresh extents, and
// replays stored extents at eligible call sites. Not safe for concurrent
// use (one engine run drives it).
type Session struct {
	store *Store
	info  *modInfo

	prof *profile.Profile
	rt   *kremlib.Runtime

	recorders []*Recording
	stats     Stats
	disabled  bool

	// Scoped sessions (SessionScoped) mix every content key with a salt
	// derived from the scope name, isolating keyspaces per tenant. Mixing
	// by XOR is sound: crafting a key that collides across scopes requires
	// a preimage of the truncated SHA-256 content hash.
	scoped     bool
	salt       Key
	scopedKeys map[*funcFact]Key

	idScratch   []int32
	charScratch []int32
	runScratch  []profile.Child
}

// keyFor returns fact's content key in this session's keyspace.
func (s *Session) keyFor(fact *funcFact) Key {
	if !s.scoped {
		return fact.Key
	}
	if k, ok := s.scopedKeys[fact]; ok {
		return k
	}
	k := fact.Key
	for i := range k {
		k[i] ^= s.salt[i]
	}
	s.scopedKeys[fact] = k
	return k
}

// Recording tracks one in-flight extent recording.
type Recording struct {
	fn         *ir.Func
	key        Key
	argBits    []uint64
	entryDepth int
	startWork  uint64
	startSteps uint64
	startRaw   uint64
	chars      []int32
	seen       map[int32]int32
	lastChar   int32
	aborted    bool
}

// Bind attaches the session to the run's profile and runtime and installs
// the intern hook. Call once, after the runtime is created and before
// execution starts.
func (s *Session) Bind(prof *profile.Profile, rt *kremlib.Runtime) {
	s.prof = prof
	s.rt = rt
	rt.SetInternHook(s.noteIntern)
}

// Cacheable reports whether calls to f are candidates for skip/record.
func (s *Session) Cacheable(f *ir.Func) bool {
	if s.disabled || s.rt == nil {
		return false
	}
	fact := s.info.facts[f]
	return fact != nil && fact.Sealed
}

// Stats returns the session counters plus store-level totals.
func (s *Session) Stats() Stats {
	st := s.stats
	s.store.mu.Lock()
	st.StoreRecords = s.store.nRecords
	st.Corrupt = s.store.corrupt
	st.Evicted = s.store.evicted
	s.store.mu.Unlock()
	return st
}

func (s *Session) noteIntern(c int32) {
	for _, r := range s.recorders {
		r.lastChar = c
		if r.aborted {
			continue
		}
		if _, ok := r.seen[c]; !ok {
			if len(r.chars) >= maxSliceEntries {
				r.aborted = true
				continue
			}
			r.seen[c] = int32(len(r.chars))
			r.chars = append(r.chars, c)
		}
	}
}

// TrySkip attempts to replay a cached extent for a call to f at the current
// point of execution. On success the caller-visible effects have been fully
// applied (dictionary splice, region watermarks, result register, parent
// child run) and the engine must only account the returned Hit; on failure
// nothing was mutated and the call must execute normally. steps/limit and
// heapTop/heapCap are the engine budgets: a record whose replay would cross
// either budget is refused, so budget failures reproduce at the exact same
// instruction as an uncached run.
func (s *Session) TrySkip(f *ir.Func, call *ir.Instr, fs *kremlib.FrameState, argBits []uint64, argVecs []shadow.Vec, steps, limit, heapTop, heapCap uint64) (Hit, bool) {
	if s.disabled || s.rt == nil {
		return Hit{}, false
	}
	depth := s.rt.Depth()
	if depth >= kremlib.DefaultMaxDepth {
		return Hit{}, false
	}
	fact := s.info.facts[f]
	if fact == nil || !fact.Sealed {
		return Hit{}, false
	}
	s.stats.Lookups++
	rec := s.store.lookup(s.keyFor(fact), depth, argBits)
	if rec == nil {
		s.stats.Misses++
		return Hit{}, false
	}
	if limit > 0 && rec.Steps > limit-steps {
		s.stats.Budget++
		s.stats.Misses++
		return Hit{}, false
	}
	if heapCap > 0 && rec.PeakHeap > heapCap-heapTop {
		s.stats.Budget++
		s.stats.Misses++
		return Hit{}, false
	}
	if !s.rt.ArgsTimely(fs, argVecs) {
		s.stats.Untimely++
		s.stats.Misses++
		return Hit{}, false
	}
	rootChar, ok := s.splice(f, rec)
	if !ok {
		s.stats.Unsplicable++
		s.stats.Misses++
		return Hit{}, false
	}
	s.rt.ApplySkippedCall(fs, call, rec.Work, rec.RetDelta, rec.MaxDelta, rootChar)
	s.stats.Hits++
	s.stats.SkippedSteps += rec.Steps
	s.stats.SkippedWork += rec.Work
	return Hit{Steps: rec.Steps, PeakHeap: rec.PeakHeap, RetBits: rec.RetBits}, true
}

// splice replays rec's dictionary slice into the live dictionary, in the
// recorded first-touch order, and returns the root character. Resolution
// happens before any mutation: if the record does not fit this program
// (renamed callee, fewer regions — a stale record surviving a hash
// collision or a half-edited module), the splice is refused and the call
// executes normally.
func (s *Session) splice(root *ir.Func, rec *Record) (int32, bool) {
	ids := s.idScratch[:0]
	for _, e := range rec.Slice {
		var name string
		if e.FuncIdx == 0 {
			name = root.Name
		} else {
			if int(e.FuncIdx) >= len(rec.Funcs) {
				return 0, false
			}
			name = rec.Funcs[e.FuncIdx]
		}
		lst := s.info.funcRegions[name]
		if int(e.Local) >= len(lst) {
			return 0, false
		}
		ids = append(ids, lst[e.Local])
	}
	s.idScratch = ids

	dict := s.prof.Dict
	chars := s.charScratch[:0]
	for i, e := range rec.Slice {
		runs := s.runScratch[:0]
		for _, c := range e.Children {
			runs = append(runs, profile.Child{Char: chars[c.Char], Count: c.Count})
		}
		s.runScratch = runs
		ch := dict.InternRuns(ids[i], e.Work, e.CP, runs)
		chars = append(chars, ch)
		s.noteIntern(ch)
	}
	s.charScratch = chars
	// Replaying interned len(Slice) summaries; the extent produced RawDelta.
	dict.RawCount += rec.RawDelta - uint64(len(rec.Slice))
	return chars[rec.RootIdx], true
}

// BeginRecord opens a recording of the imminent call's extent, or returns
// nil if the context is not worth recording (already cached, caps reached,
// outside the tracked depth window). Call after the call instruction's own
// Step and before the callee executes.
func (s *Session) BeginRecord(f *ir.Func, argBits []uint64, steps uint64) *Recording {
	if s.disabled || s.rt == nil || len(s.recorders) >= maxRecorderDepth {
		return nil
	}
	if len(argBits) > maxArgs {
		return nil
	}
	depth := s.rt.Depth()
	if depth >= kremlib.DefaultMaxDepth {
		return nil
	}
	fact := s.info.facts[f]
	if fact == nil || !fact.Sealed {
		return nil
	}
	key := s.keyFor(fact)
	if !s.store.canInsert(key, depth, argBits) {
		return nil
	}
	r := &Recording{
		fn:         f,
		key:        key,
		argBits:    append([]uint64(nil), argBits...),
		entryDepth: depth,
		startWork:  s.rt.TotalWork(),
		startSteps: steps,
		startRaw:   s.prof.Dict.RawCount,
		seen:       make(map[int32]int32),
		lastChar:   -1,
	}
	s.recorders = append(s.recorders, r)
	return r
}

// EndRecord closes a recording opened by BeginRecord after the call
// returned successfully, assembling and storing the Record. retVec is the
// callee's return vector (kremlib.FrameState.RetVec), peakHeap the extent's
// peak heap growth above the entry heap mark.
func (s *Session) EndRecord(r *Recording, steps, retBits uint64, retVec shadow.Vec, peakHeap uint64) {
	n := len(s.recorders)
	if n == 0 || s.recorders[n-1] != r {
		// Engine bug: mispaired Begin/End. Disable rather than record garbage.
		s.disabled = true
		s.recorders = s.recorders[:0]
		return
	}
	s.recorders = s.recorders[:n-1]
	if r.aborted || r.lastChar < 0 {
		return
	}
	dict := s.prof.Dict
	rootIdx, ok := r.seen[r.lastChar]
	if !ok {
		return
	}
	var retDelta uint64
	if r.entryDepth < len(retVec) {
		retDelta = retVec[r.entryDepth].Time
	}
	rec := &Record{
		EntryDepth: r.entryDepth,
		ArgBits:    r.argBits,
		RetBits:    retBits,
		Work:       s.rt.TotalWork() - r.startWork,
		Steps:      steps - r.startSteps,
		RawDelta:   dict.RawCount - r.startRaw,
		PeakHeap:   peakHeap,
		RetDelta:   retDelta,
		MaxDelta:   dict.Entries[r.lastChar].CP,
		Funcs:      []string{""},
		Slice:      make([]SliceEntry, 0, len(r.chars)),
		RootIdx:    rootIdx,
	}
	fidx := map[string]int32{r.fn.Name: 0}
	for i, c := range r.chars {
		e := &dict.Entries[c]
		if int(e.StaticID) >= len(s.info.regionOf) {
			return
		}
		loc := s.info.regionOf[e.StaticID]
		if loc.fn == nil {
			return
		}
		fi, ok := fidx[loc.fn.Name]
		if !ok {
			fi = int32(len(rec.Funcs))
			rec.Funcs = append(rec.Funcs, loc.fn.Name)
			fidx[loc.fn.Name] = fi
		}
		children := make([]profile.Child, len(e.Children))
		for j, ch := range e.Children {
			si, ok := r.seen[ch.Char]
			if !ok || si >= int32(i) {
				// A child interned outside the extent: cannot happen for a
				// well-formed extent; refuse rather than store a bad slice.
				return
			}
			children[j] = profile.Child{Char: si, Count: ch.Count}
		}
		rec.Slice = append(rec.Slice, SliceEntry{FuncIdx: fi, Local: loc.local, Work: e.Work, CP: e.CP, Children: children})
	}
	if s.store.insert(r.key, rec) {
		s.stats.Recorded++
	}
}
