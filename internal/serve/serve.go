// Package serve implements kremlin-serve, the profiling daemon: a
// long-running multi-tenant HTTP service where clients POST a Kr program
// and receive, as a newline-delimited JSON stream, the program's output,
// its compressed KRPF2 parallelism profile, the ranked parallelism plan,
// and the static loop-dependence vet report.
//
// The daemon is built to survive hostile inputs and its own bugs:
//
//   - Every job runs under a context deadline, an instruction budget, a
//     simulated-heap cap, and a shadow-memory page cap; violations come
//     back as typed errors from the limits package, never as a wedged
//     worker.
//   - A bounded worker pool services a bounded queue; when the queue is
//     full the daemon sheds load with 429 instead of accepting unbounded
//     work, and a per-tenant token bucket stops one tenant from starving
//     the rest.
//   - Each job executes behind a recover boundary: a panic anywhere in
//     the profiling pipeline fails that one job with a diagnostic and the
//     process survives.
//   - SIGTERM drains gracefully: in-flight and queued jobs finish, new
//     submissions are refused with 503.
//
// The chaos subpackage injects panics, stalls, cancellations, and
// oversized inputs to prove all of the above under fault load.
package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"kremlin"
	"kremlin/internal/frontcache"
	"kremlin/internal/inccache"
	"kremlin/internal/ircache"
	"kremlin/internal/serve/chaos"
)

// Defaults for the zero Config.
const (
	DefaultWorkers    = 4
	DefaultQueueDepth = 64
	DefaultJobTimeout = 10 * time.Second
	DefaultMaxInsns   = 50_000_000
	DefaultMaxPages   = 1 << 16 // 64Ki shadow pages ≈ 256 MiB of tag state
	DefaultMaxHeap    = 1 << 24 // 16Mi words = 128 MiB simulated heap
	DefaultMaxBody    = 1 << 20 // 1 MiB of Kr source
	DefaultMaxOutput  = 1 << 16 // 64 KiB of captured program output
)

// Config tunes the daemon. The zero value gets the defaults above and no
// rate limiting or chaos.
type Config struct {
	// Workers is the size of the worker pool (concurrent jobs).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// shed with 429.
	QueueDepth int
	// JobTimeout is the per-job wall-clock deadline, measured from
	// admission (queue wait counts — a job that waits out its deadline in
	// the queue fails fast instead of occupying a worker).
	JobTimeout time.Duration
	// MaxInsns is the per-job instruction budget.
	MaxInsns uint64
	// MaxShadowPages caps each job's live shadow-memory pages.
	MaxShadowPages int
	// MaxHeapWords caps each job's simulated heap, in 8-byte words.
	MaxHeapWords uint64
	// MaxBodyBytes caps the POSTed Kr source size.
	MaxBodyBytes int64
	// MaxOutputBytes caps the captured program print output per job.
	MaxOutputBytes int
	// RatePerSec > 0 enables per-tenant token-bucket rate limiting
	// (RateBurst tokens of burst, default 2×rate). Tenants are identified
	// by the X-Kremlin-Tenant header, falling back to the client host.
	RatePerSec float64
	RateBurst  int
	// Engine selects the per-job execution engine (default: bytecode VM).
	Engine kremlin.Engine
	// JobCache > 0 memoizes up to that many successful jobs, keyed by a
	// content hash of (payload, personality, engine). A repeat submission
	// is answered from the cache without re-execution; entries are
	// checksummed and a damaged entry falls back to re-execution. 0
	// disables caching.
	JobCache int
	// CompileCache > 0 memoizes up to that many compiled programs, keyed
	// by a content hash of the submitted source or IR bundle. A near-repeat
	// submission — same program, different personality, or the
	// whole-job cache missed — skips the entire front end
	// (lex/parse/typecheck/irbuild/analysis and bytecode compilation) and
	// re-executes against the shared *kremlin.Program. Concurrent
	// submissions of the same never-seen program compile once
	// (single-flight). CompileCacheBytes optionally bounds the held bytes
	// (0 = unbounded). 0 entries disables the cache.
	//
	// A compile cache also turns on the per-function front cache: a
	// compile that misses reuses the lowered IR of every function whose
	// source text and visible declarations are unchanged, and the abstract
	// interpretation and mod/ref summary of every function whose analysis
	// inputs are unchanged, since an earlier compile of the same tenant
	// (at most frontcache.MaxEntries entries and frontcache.MaxBytes
	// estimated bytes, shared by all tenants).
	CompileCache      int
	CompileCacheBytes int64
	// IncCache, when non-nil, is a shared incremental re-profiling store:
	// jobs replay cached HCPA extents of unchanged sealed functions instead
	// of executing them. Each tenant gets an isolated keyspace inside the
	// shared store (records never replay across tenants), and the store's
	// record bound is global. Profiles stay byte-identical to uncached runs.
	IncCache *inccache.Store
	// DisableLint turns off the lint admission gate. By default a job
	// whose program the abstract interpreter proves faults on every
	// terminating run is rejected with a typed "lint_error" before any
	// worker-pool budget is spent executing it.
	DisableLint bool
	// Chaos, when non-nil, injects deterministic faults into jobs.
	Chaos *chaos.Injector
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = DefaultJobTimeout
	}
	if c.MaxInsns == 0 {
		c.MaxInsns = DefaultMaxInsns
	}
	if c.MaxShadowPages == 0 {
		c.MaxShadowPages = DefaultMaxPages
	}
	if c.MaxHeapWords == 0 {
		c.MaxHeapWords = DefaultMaxHeap
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBody
	}
	if c.MaxOutputBytes == 0 {
		c.MaxOutputBytes = DefaultMaxOutput
	}
	if c.RatePerSec > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(2 * c.RatePerSec)
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is a point-in-time snapshot of the daemon's counters.
type Stats struct {
	Accepted    uint64 `json:"accepted"`      // jobs admitted to the queue
	Completed   uint64 `json:"completed"`     // jobs fully serviced (any outcome)
	Shed        uint64 `json:"shed"`          // submissions refused: queue full
	RateLimited uint64 `json:"rate_limited"`  // submissions refused: tenant over rate
	Faulted     uint64 `json:"faulted"`       // jobs poisoned by the chaos injector
	Panics      uint64 `json:"panics"`        // worker panics caught by the recover boundary
	LintReject  uint64 `json:"lint_rejected"` // jobs refused: program provably faults
	InFlight    int64  `json:"in_flight"`     // jobs being serviced right now
	Queued      int    `json:"queued"`        // jobs waiting in the queue
	Draining    bool   `json:"draining"`      // daemon is refusing new work

	CacheHits    uint64 `json:"cache_hits"`    // jobs answered from the job cache
	CacheMisses  uint64 `json:"cache_misses"`  // cacheable jobs that had to execute
	CacheCorrupt uint64 `json:"cache_corrupt"` // cache entries failing their checksum
	CacheEntries int    `json:"cache_entries"` // entries resident right now

	// Compile cache (Config.CompileCache): content hash → compiled program.
	CompileHits    uint64 `json:"compile_cache_hits"`    // jobs that skipped the front end
	CompileMisses  uint64 `json:"compile_cache_misses"`  // compiles actually run
	CompileEvicted uint64 `json:"compile_cache_evicted"` // programs displaced by the bounds
	CompileEntries int    `json:"compile_cache_entries"` // programs resident right now
	CompileBytes   int64  `json:"compile_cache_bytes"`   // estimated bytes held

	// Front cache (on with the compile cache), counted per function lookup:
	// lowered IR, absint first pass, absint final pass, mod/ref summary.
	// The totals sum the three kinds; IR misses count functions lowered.
	FrontHits         uint64 `json:"front_cache_hits"`
	FrontMisses       uint64 `json:"front_cache_misses"`
	FrontIRHits       uint64 `json:"front_cache_ir_hits"`
	FrontIRMisses     uint64 `json:"front_cache_ir_misses"`
	FrontAbsintHits   uint64 `json:"front_cache_absint_hits"` // both passes
	FrontAbsintMisses uint64 `json:"front_cache_absint_misses"`
	FrontModRefHits   uint64 `json:"front_cache_modref_hits"`
	FrontModRefMisses uint64 `json:"front_cache_modref_misses"`
	FrontEntries      int    `json:"front_cache_entries"`
	FrontBytes        int64  `json:"front_cache_bytes"` // estimated bytes held

	// Shared incremental re-profiling store (Config.IncCache), summed over
	// every job serviced so far.
	IncLookups  uint64 `json:"inccache_lookups"`
	IncHits     uint64 `json:"inccache_hits"`     // call extents replayed instead of executed
	IncRecorded uint64 `json:"inccache_recorded"` // fresh extents captured
	IncRecords  int    `json:"inccache_records"`  // records resident in the store
	IncEvicted  int    `json:"inccache_evicted"`  // records displaced by the store bound
	IncCorrupt  int    `json:"inccache_corrupt"`  // store files rejected and repaired at open
}

// Server is the daemon. Create with New, mount Handler on an http.Server,
// stop with Drain.
type Server struct {
	cfg       Config
	limiter   *tenantLimiter
	jobCache  *jobCache         // nil when Config.JobCache == 0
	compCache *ircache.Cache    // nil when Config.CompileCache == 0
	front     *frontcache.Cache // nil when Config.CompileCache == 0

	mu       sync.Mutex // guards draining and the close of jobs
	draining bool
	jobs     chan *job
	wg       sync.WaitGroup // worker goroutines

	seq         atomic.Uint64
	accepted    atomic.Uint64
	completed   atomic.Uint64
	shed        atomic.Uint64
	rateLimited atomic.Uint64
	faulted     atomic.Uint64
	panics      atomic.Uint64
	lintReject  atomic.Uint64
	inFlight    atomic.Int64

	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	cacheCorrupt atomic.Uint64

	incLookups  atomic.Uint64
	incHits     atomic.Uint64
	incRecorded atomic.Uint64
}

// New starts a daemon: the worker pool is running on return.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		jobs: make(chan *job, cfg.QueueDepth),
	}
	if cfg.RatePerSec > 0 {
		s.limiter = newTenantLimiter(cfg.RatePerSec, cfg.RateBurst)
	}
	if cfg.JobCache > 0 {
		s.jobCache = newJobCache(cfg.JobCache)
	}
	if cfg.CompileCache > 0 {
		s.compCache = ircache.New(cfg.CompileCache, cfg.CompileCacheBytes)
		s.front = frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.jobs {
				s.runJob(j)
			}
		}()
	}
	return s
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	st := Stats{
		Accepted:     s.accepted.Load(),
		Completed:    s.completed.Load(),
		Shed:         s.shed.Load(),
		RateLimited:  s.rateLimited.Load(),
		Faulted:      s.faulted.Load(),
		Panics:       s.panics.Load(),
		LintReject:   s.lintReject.Load(),
		InFlight:     s.inFlight.Load(),
		Queued:       len(s.jobs),
		Draining:     draining,
		CacheHits:    s.cacheHits.Load(),
		CacheMisses:  s.cacheMisses.Load(),
		CacheCorrupt: s.cacheCorrupt.Load(),
	}
	if s.jobCache != nil {
		st.CacheEntries = s.jobCache.len()
	}
	if s.compCache != nil {
		cs := s.compCache.Stats()
		st.CompileHits = cs.Hits
		st.CompileMisses = cs.Misses
		st.CompileEvicted = cs.Evicted
		st.CompileEntries = cs.Entries
		st.CompileBytes = cs.Bytes
		fs := s.front.Stats()
		st.FrontHits = fs.Hits
		st.FrontMisses = fs.Misses
		ir, ai, mr := fs.Kinds[frontcache.KindIR], fs.Kinds[frontcache.KindAbsint], fs.Kinds[frontcache.KindModRef]
		st.FrontIRHits, st.FrontIRMisses = ir.Hits, ir.Misses
		st.FrontAbsintHits, st.FrontAbsintMisses = ai.Hits, ai.Misses
		st.FrontModRefHits, st.FrontModRefMisses = mr.Hits, mr.Misses
		st.FrontEntries = fs.Entries
		st.FrontBytes = fs.Bytes
	}
	if s.cfg.IncCache != nil {
		st.IncLookups = s.incLookups.Load()
		st.IncHits = s.incHits.Load()
		st.IncRecorded = s.incRecorded.Load()
		st.IncRecords = s.cfg.IncCache.Records()
		st.IncEvicted = s.cfg.IncCache.EvictedCount()
		st.IncCorrupt = s.cfg.IncCache.CorruptCount()
	}
	return st
}

// submit enqueues j without blocking. It returns false when the queue is
// full or the daemon is draining (errDraining distinguishes the two).
func (s *Server) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.jobs <- j:
		s.accepted.Add(1)
		return nil
	default:
		s.shed.Add(1)
		return errQueueFull
	}
}

// Drain stops admission and waits for every queued and in-flight job to
// finish, or for ctx to expire. It is idempotent and safe to call
// concurrently; the error is ctx.Err() on a deadline, nil on a clean
// drain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.jobs) // workers drain the queue, then exit
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
