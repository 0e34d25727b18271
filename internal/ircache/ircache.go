// Package ircache is the serve layer's content-addressed compile cache:
// source hash → verified, ready-to-execute program. A warm submission skips
// the whole front end (lex/parse/typecheck/irbuild/analysis and the
// bytecode compile) even when the whole-job cache misses — the same program
// resubmitted with a different personality, or an IR bundle of a program
// first seen as source.
//
// The cache is a bounded LRU (entry count and held-bytes caps, either 0 =
// unbounded) with single-flight misses: concurrent submissions of the same
// never-seen program compile once, and the rest wait for that one build
// instead of burning a worker each. Cached values are immutable by
// contract — a *kremlin.Program is safe to share across concurrent jobs
// (instrumentation events are precomputed at build time and bytecode
// lowering is behind a sync.Once), which is what makes this cache sound.
// Failed builds are never cached: a compile error is cheap to reproduce
// and the submission mix shouldn't pin garbage.
package ircache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Key is a truncated SHA-256 content hash, domain-separated by input kind
// so a source text and a bundle with identical bytes can never alias.
type Key [16]byte

func (k Key) String() string { return hex.EncodeToString(k[:]) }

func keyOf(domain string, parts ...[]byte) Key {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, p := range parts {
		var n [8]byte
		for i, l := 0, len(p); i < 8; i, l = i+1, l>>8 {
			n[i] = byte(l)
		}
		h.Write(n[:])
		h.Write(p)
	}
	var k Key
	copy(k[:], h.Sum(nil))
	return k
}

// SourceKey addresses a Kr source submission. The program name
// participates: it is baked into region labels, so the same text under two
// names compiles to observably different programs.
func SourceKey(name, src string) Key {
	return keyOf("kr-src\x00", []byte(name), []byte(src))
}

// BundleKey addresses a precompiled KRIB1 bundle submission.
func BundleKey(data []byte) Key {
	return keyOf("kr-irb\x00", data)
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits    uint64 // lookups served from the cache, including joins of an in-flight build
	Misses  uint64 // builds actually run
	Evicted uint64 // entries displaced by the entry or byte bound
	Entries int    // entries currently held
	Bytes   int64  // estimated bytes currently held
}

// Cache is the bounded single-flight LRU. The zero value is not usable;
// call New.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	items      map[Key]*list.Element
	calls      map[Key]*call
	bytes      int64
	hits       uint64
	misses     uint64
	evicted    uint64
}

type item struct {
	key  Key
	val  interface{}
	cost int64
}

type call struct {
	done chan struct{}
	val  interface{}
	err  error
}

// New builds a cache holding at most maxEntries entries and maxBytes
// estimated bytes (either 0 = unbounded in that dimension).
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[Key]*list.Element),
		calls:      make(map[Key]*call),
	}
}

// Load returns the cached value for k, building it on a miss. build
// returns the value, its estimated byte cost, and an error; errors
// propagate to every waiter and are not cached. Concurrent Loads of the
// same absent key run build exactly once.
func (c *Cache) Load(k Key, build func() (interface{}, int64, error)) (interface{}, error) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*item).val
		c.mu.Unlock()
		return v, nil
	}
	if cl, ok := c.calls[k]; ok {
		// Someone else is already compiling this program; joining their
		// build still skips the front end, so it counts as a hit.
		c.hits++
		c.mu.Unlock()
		<-cl.done
		return cl.val, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.calls[k] = cl
	c.misses++
	c.mu.Unlock()

	var cost int64
	func() {
		// A panicking build must release its waiters (with an error) before
		// the panic propagates, or every joiner deadlocks.
		defer func() {
			if r := recover(); r != nil {
				c.abort(k, cl)
				panic(r)
			}
		}()
		cl.val, cost, cl.err = build()
	}()

	c.mu.Lock()
	delete(c.calls, k)
	if cl.err == nil {
		c.items[k] = c.ll.PushFront(&item{key: k, val: cl.val, cost: cost})
		c.bytes += cost
		c.evict()
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.val, cl.err
}

// abort releases a failed in-flight build's waiters.
func (c *Cache) abort(k Key, cl *call) {
	c.mu.Lock()
	delete(c.calls, k)
	c.mu.Unlock()
	if cl.err == nil {
		cl.err = errPanicked
	}
	close(cl.done)
}

type panicError struct{}

func (panicError) Error() string { return "ircache: build panicked" }

var errPanicked error = panicError{}

// evict drops least-recently-used entries until both bounds hold.
// Called with c.mu held.
func (c *Cache) evict() {
	for c.ll.Len() > 0 {
		over := (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1)
		if !over {
			return
		}
		el := c.ll.Back()
		it := el.Value.(*item)
		c.ll.Remove(el)
		delete(c.items, it.key)
		c.bytes -= it.cost
		c.evicted++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:    c.hits,
		Misses:  c.misses,
		Evicted: c.evicted,
		Entries: c.ll.Len(),
		Bytes:   c.bytes,
	}
}
