// Package frontcache is the serve daemon's per-function cache of
// front-half results: each function's lowered, annotated IR, absint's two
// interprocedural passes and depcheck's mod/ref summaries. A daemon that
// profiles edit after edit of one program lowers and analyzes again only
// the functions whose inputs changed.
//
// Each entry is keyed on the exact input of one per-function computation.
// An IR entry's input is the function's source text plus the declarations
// it can see (see Lowering); an analysis entry's is the function's local
// content sum (irhash.LocalSum) plus whatever the computation reads from
// other functions, such as callee summaries or parameter ranges joined
// from callers. The analysis key builders live in internal/absint and
// internal/depcheck, which store opaque, immutable values here. Cached
// values never hold pointers into one program's IR, so a hit is shared
// as-is across programs: analysis values hold no positions, which are
// recomputed from the current IR, and an IR entry is encoded bytes, which
// a hit decodes into fresh blocks and instructions at the function's
// current offset.
//
// The cache is a single LRU bounded both by entry count and by the
// estimated bytes of its values (MaxEntries and MaxBytes in the daemon),
// and safe for concurrent compiles. Compiles reach it through a Scope:
// every key a scope reads or writes is mixed with a salt derived from the
// scope's name, so tenants never see each other's entries. The bounds are
// shared by every scope, and the hit and miss counters are kept per Kind.
package frontcache

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"kremlin/internal/ir"
	"kremlin/internal/irhash"
)

// The daemon's bounds. A function costs at most four entries (lowered
// IR, absint pass 1, absint final pass, mod/ref summary), so MaxEntries
// holds every function of sixteen 1,000-function programs. A final-pass
// entry carries a 32-byte range for every value of its function, so one
// very large function can cost megabytes; MaxBytes caps the sum of the
// estimates.
const (
	MaxEntries = 1 << 16
	MaxBytes   = 128 << 20
)

// entryOverhead approximates one entry's fixed cost beyond its value: the
// key, the list element and the map slot.
const entryOverhead = 128

// Key addresses one entry.
type Key [16]byte

// Value is an immutable cached result.
type Value interface {
	// Bytes estimates the memory the value holds.
	Bytes() int64
}

// Kind names what an entry holds; the counters are kept per kind.
type Kind int

// The entry kinds.
const (
	KindIR     Kind = iota // a lowered, annotated function body (Lowering)
	KindAbsint             // one of absint's two per-function passes
	KindModRef             // a depcheck mod/ref summary
	numKinds
)

func (k Kind) String() string { return [...]string{"ir", "absint", "modref"}[k] }

// Counts is one kind's lookup counters.
type Counts struct {
	Hits   uint64
	Misses uint64
}

// Stats is a point-in-time counter snapshot. Hits and Misses count
// per-function lookups of every kind, and Kinds splits them by Kind;
// Bytes is the estimated size of the resident entries.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Kinds   [numKinds]Counts
	Entries int
	Bytes   int64
}

// Cache is the bounded LRU. The zero value is not usable; call New.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[Key]*list.Element
	kinds      [numKinds]Counts
}

type item struct {
	key  Key
	val  Value
	size int64
}

// New builds a cache holding at most maxEntries entries and maxBytes
// estimated bytes.
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{maxEntries: maxEntries, maxBytes: maxBytes, ll: list.New(), items: make(map[Key]*list.Element)}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{Kinds: c.kinds, Entries: c.ll.Len(), Bytes: c.bytes}
	for _, k := range c.kinds {
		st.Hits += k.Hits
		st.Misses += k.Misses
	}
	return st
}

// Scope is a view of the cache restricted to one keyspace.
type Scope struct {
	c    *Cache
	salt [32]byte
}

// Scope returns the keyspace named name; the daemon passes the tenant.
func (c *Cache) Scope(name string) *Scope {
	return &Scope{c: c, salt: sha256.Sum256([]byte("kremlin-frontcache-scope\x00" + name))}
}

// Session is one compile's view of a scope: the scope plus the content
// hashes of the module being compiled.
type Session struct {
	*Scope
	Hashes *irhash.Module
}

// Session opens a compile of the module that hashes describes.
func (s *Scope) Session(hashes *irhash.Module) *Session {
	return &Session{Scope: s, Hashes: hashes}
}

// Local returns f's local content sum.
func (s *Session) Local(f *ir.Func) [32]byte { return s.Hashes.Funcs[f].Local }

// Key hashes an encoded computation input into this scope's keyspace.
func (s *Scope) Key(input []byte) Key {
	h := sha256.New()
	h.Write(s.salt[:])
	h.Write(input)
	var k Key
	copy(k[:], h.Sum(nil))
	return k
}

// Get returns the value stored under k, counting the lookup under kind.
func (s *Scope) Get(kind Kind, k Key) (Value, bool) {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.kinds[kind].Misses++
		return nil, false
	}
	c.kinds[kind].Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*item).val, true
}

// Put stores v under k, evicting least-recently-used entries until both
// bounds hold. A value larger than the whole byte bound is not stored. v
// must never be mutated afterwards.
func (s *Scope) Put(k Key, v Value) {
	c := s.c
	size := entryOverhead + v.Bytes()
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		it := el.Value.(*item)
		c.bytes += size - it.size
		it.val, it.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.items[k] = c.ll.PushFront(&item{key: k, val: v, size: size})
		c.bytes += size
	}
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		el := c.ll.Back()
		it := el.Value.(*item)
		c.ll.Remove(el)
		delete(c.items, it.key)
		c.bytes -= it.size
	}
}
