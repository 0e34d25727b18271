package serve

// jobCache memoizes whole successful jobs, content-addressed by the exact
// inputs that determine the result: the Kr source plus the personality
// and engine the daemon would run it with. Profiling is deterministic for
// a fixed (source, engine), so a cached event stream is byte-identical to
// what re-execution would produce — the cache trades memory for skipping
// the entire compile/profile/plan/vet pipeline on repeat submissions.
//
// Entries carry a checksum taken at insert time, verified on every
// lookup. A damaged entry (chaos-injected or otherwise) is detected,
// evicted, and counted; the job then re-executes as a miss. A corrupt
// cache can cost a recompute, never a wrong answer.
//
// Failed jobs are never cached: their outcomes (timeout, cancellation,
// budget refusal under a since-changed config) are not content-determined.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"kremlin"
)

type jobCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*jobCacheEntry
	order   []string // insertion order, for FIFO eviction
}

type jobCacheEntry struct {
	payload []byte // JSON-encoded []Event (every event but "done")
	sum     uint64 // FNV-64a of payload at insert time
}

func newJobCache(max int) *jobCache {
	return &jobCache{max: max, entries: map[string]*jobCacheEntry{}}
}

// jobKey addresses a result by everything that can change it, including
// the payload kind ("src" or "irb") — a source text and an IR bundle with
// identical bytes are different programs.
func jobKey(kind, payload, personality string, engine kremlin.Engine) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00%s\x00", kind, engine, personality)
	h.Write([]byte(payload))
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func jobChecksum(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// lookup returns the cached event stream for key. corrupt reports that an
// entry existed but failed validation; it has been evicted.
//
// Only the map read holds the lock: checksumming and decoding a large
// payload are O(payload) work that would otherwise serialize every
// concurrent lookup (and store) behind one hot entry. The payload slice is
// copied out first because corruptEntry mutates it in place under the lock.
func (c *jobCache) lookup(key string) (evs []Event, ok, corrupt bool) {
	c.mu.Lock()
	e, found := c.entries[key]
	var payload []byte
	var sum uint64
	if found {
		payload = append([]byte(nil), e.payload...)
		sum = e.sum
	}
	c.mu.Unlock()
	if !found {
		return nil, false, false
	}
	if jobChecksum(payload) != sum {
		c.evictIf(key, e)
		return nil, false, true
	}
	if err := json.Unmarshal(payload, &evs); err != nil {
		// A payload that checksums clean but no longer parses means the
		// entry was damaged before insert; same remedy.
		c.evictIf(key, e)
		return nil, false, true
	}
	return evs, true, false
}

// evictIf removes key only if it still holds the entry we validated —
// a concurrent store may have replaced it with a fresh one since we
// dropped the lock, and that one deserves its own validation.
func (c *jobCache) evictIf(key string, e *jobCacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] == e {
		c.evictLocked(key)
	}
}

// store inserts the event stream under key, evicting the oldest entry
// when the cache is full. Re-storing an existing key counts as a fresh
// insertion: its eviction position moves to the back of the FIFO, so a
// key that keeps being re-produced is not evicted as if it were the
// oldest resident. Unencodable streams are silently not cached.
func (c *jobCache) store(key string, evs []Event) {
	payload, err := json.Marshal(evs)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; exists {
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	} else {
		for len(c.entries) >= c.max && len(c.order) > 0 {
			c.evictLocked(c.order[0])
		}
	}
	c.order = append(c.order, key)
	c.entries[key] = &jobCacheEntry{payload: payload, sum: jobChecksum(payload)}
}

// corruptEntry flips a bit in the stored payload for key (chaos
// injection); the next lookup must detect the mismatch.
func (c *jobCache) corruptEntry(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && len(e.payload) > 0 {
		e.payload[len(e.payload)/2] ^= 0x40
	}
}

func (c *jobCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *jobCache) evictLocked(key string) {
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}
