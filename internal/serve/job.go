package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"kremlin"
	"kremlin/internal/frontcache"
	"kremlin/internal/inccache"
	"kremlin/internal/ircache"
	"kremlin/internal/limits"
	"kremlin/internal/planner"
	"kremlin/internal/serve/chaos"
)

// Submission errors (pre-queue refusals).
var (
	errQueueFull = errors.New("job queue full")
	errDraining  = errors.New("daemon draining")
)

// Event is one line of the NDJSON response stream. Type is always set;
// every other field belongs to one event type and is omitted elsewhere.
//
// The stream for a successful job is: zero or one "output", then
// "profile", "plan", "vet", and "done". A failed job's stream is a single
// "error" event (possibly after an "output" prefix when the run produced
// output before failing).
type Event struct {
	Type string `json:"event"`

	// "error"
	Kind   string `json:"kind,omitempty"`   // error taxonomy: see docs/serve.md
	Detail string `json:"detail,omitempty"` // human-readable message

	// "output"
	Data      string `json:"data,omitempty"` // captured program print output
	Truncated bool   `json:"truncated,omitempty"`

	// "profile"
	Work        uint64 `json:"work,omitempty"`
	Steps       uint64 `json:"steps,omitempty"`
	DictEntries int    `json:"dict_entries,omitempty"`
	RawBytes    uint64 `json:"raw_bytes,omitempty"` // uncompressed-trace equivalent
	KRPF2       string `json:"krpf2_b64,omitempty"` // base64 KRPF2 profile bytes

	// "plan"
	Personality string    `json:"personality,omitempty"`
	EstSpeedup  float64   `json:"est_speedup,omitempty"`
	Recs        []PlanRec `json:"recommendations,omitempty"`

	// "vet"
	Parallel int       `json:"parallel,omitempty"`
	Serial   int       `json:"serial,omitempty"`
	Unknown  int       `json:"unknown,omitempty"`
	Loops    []VetLoop `json:"loops,omitempty"`

	// "done"
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// PlanRec is one planner recommendation, flattened for JSON.
type PlanRec struct {
	Label      string  `json:"label"`
	Hint       string  `json:"hint"`
	Safety     string  `json:"safety"`
	SelfP      float64 `json:"self_p"`
	Coverage   float64 `json:"coverage"`
	EstSpeedup float64 `json:"est_speedup"`
}

// VetLoop is one loop's static dependence verdict, flattened for JSON.
type VetLoop struct {
	Label   string `json:"label"`
	Verdict string `json:"verdict"`
}

// job is one admitted profiling request. Exactly one of src and bundle is
// the payload: src for Kr source, bundle for a precompiled KRIB1 IR bundle.
type job struct {
	seq         uint64
	name        string // program name for diagnostics
	src         string // Kr source ("" for bundle jobs)
	bundle      []byte // KRIB1 bundle (nil for source jobs)
	tenant      string // caller identity; scopes the shared inccache keyspace
	personality string

	ctx    context.Context // deadline + client-disconnect; cancel is the handler's
	cancel context.CancelFunc
	events chan Event // worker → handler; closed by the worker
	start  time.Time
}

// payload returns the job's input kind tag and bytes, the pair that
// content-addresses its result. The kind participates so a source text and
// a bundle with identical bytes can never alias a cache entry.
func (j *job) payload() (kind, payload string) {
	if j.bundle != nil {
		return "irb", string(j.bundle)
	}
	return "src", j.src
}

// compileJob turns the job's payload into a runnable program, through the
// compile cache when one is configured. Cached programs are shared across
// concurrent jobs — safe because a *kremlin.Program is immutable after
// build (instrumentation is precomputed, bytecode lowering is behind a
// sync.Once) — and concurrent first submissions compile exactly once.
func (s *Server) compileJob(j *job) (*kremlin.Program, error) {
	build := func() (interface{}, int64, error) {
		var p *kremlin.Program
		var err error
		var front *frontcache.Scope
		if s.front != nil {
			front = s.front.Scope(j.tenant)
		}
		if j.bundle != nil {
			p, err = kremlin.CompileBundleWith(j.bundle, front)
		} else {
			p, err = kremlin.CompileWith(j.name, j.src, kremlin.CompileOptions{FrontCache: front})
		}
		if err != nil {
			return nil, 0, err
		}
		// Held-bytes estimate: IR + regions + precomputed instrumentation
		// land within a small constant factor of the input text.
		return p, int64(len(j.src)+len(j.bundle)) * 16, nil
	}
	if s.compCache == nil {
		v, _, err := build()
		if err != nil {
			return nil, err
		}
		return v.(*kremlin.Program), nil
	}
	var key ircache.Key
	if j.bundle != nil {
		key = ircache.BundleKey(j.bundle)
	} else {
		key = ircache.SourceKey(j.name, j.src)
	}
	v, err := s.compCache.Load(key, build)
	if err != nil {
		return nil, err
	}
	return v.(*kremlin.Program), nil
}

// emit delivers e to the handler, or drops it if the handler is gone
// (context cancelled and the buffer full). The select keeps a dead
// client from wedging a worker.
func (j *job) emit(e Event) {
	select {
	case j.events <- e:
	case <-j.ctx.Done():
		// Handler may have stopped reading; try once more without
		// blocking so buffered readers still drain, then drop.
		select {
		case j.events <- e:
		default:
		}
	}
}

// limitedBuf captures program output up to a cap, then discards (the
// writer never errors — a chatty program is truncated, not failed).
type limitedBuf struct {
	buf       bytes.Buffer
	max       int
	truncated bool
}

func (b *limitedBuf) Write(p []byte) (int, error) {
	n := len(p)
	if room := b.max - b.buf.Len(); room > 0 {
		if len(p) > room {
			p = p[:room]
			b.truncated = true
		}
		b.buf.Write(p)
	} else {
		b.truncated = true
	}
	return n, nil
}

// runJob services one job end to end: chaos, compile, profile, plan, vet.
// Every exit path closes j.events; the deferred recover converts any
// panic in the pipeline (organic or injected) into an "error" event so
// the worker — and the process — survive.
func (s *Server) runJob(j *job) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	defer s.completed.Add(1)
	defer j.cancel()
	defer close(j.events)
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			j.emit(Event{Type: "error", Kind: "panic",
				Detail: fmt.Sprintf("recovered worker panic: %v\n%s", r, debug.Stack())})
		}
	}()

	// Chaos: poison the job before real work starts.
	poisonCache := false
	if s.cfg.Chaos != nil {
		f := s.cfg.Chaos.Fault(j.seq)
		if f.Kind != chaos.None {
			s.faulted.Add(1)
		}
		switch f.Kind {
		case chaos.Panic:
			panic(fmt.Sprintf("chaos: injected panic (job %d)", j.seq))
		case chaos.Stall:
			// A stalled worker must still respect the job deadline.
			select {
			case <-time.After(f.Delay):
			case <-j.ctx.Done():
			}
		case chaos.CancelMidRun:
			t := time.AfterFunc(f.Delay, j.cancel)
			defer t.Stop()
		case chaos.Oversize:
			j.src, j.bundle = chaos.OversizeProgram(), nil
		case chaos.CorruptCache:
			poisonCache = true
		}
	}

	// A job that waited out its deadline in the queue fails fast.
	if err := j.ctx.Err(); err != nil {
		j.emit(s.errorEvent(j, limits.Cancelled(0)))
		return
	}

	// Job cache: a repeat submission replays the stored event stream
	// instead of re-executing. The key is computed after chaos so an
	// Oversize-swapped source addresses its own (never-stored) entry.
	var cacheKey string
	var cached []Event
	if s.jobCache != nil {
		kind, payload := j.payload()
		cacheKey = jobKey(kind, payload, j.personality, s.cfg.Engine)
		evs, hit, corrupt := s.jobCache.lookup(cacheKey)
		if corrupt {
			s.cacheCorrupt.Add(1)
		}
		if hit {
			s.cacheHits.Add(1)
			for _, e := range evs {
				j.emit(e)
			}
			if poisonCache {
				s.jobCache.corruptEntry(cacheKey)
			}
			j.emit(Event{Type: "done", ElapsedMS: float64(s.cfg.Now().Sub(j.start)) / float64(time.Millisecond)})
			return
		}
		s.cacheMisses.Add(1)
	}
	// cacheEmit delivers e and remembers it for the cache (when enabled).
	cacheEmit := func(e Event) {
		if s.jobCache != nil {
			cached = append(cached, e)
		}
		j.emit(e)
	}

	prog, err := s.compileJob(j)
	if err != nil {
		j.emit(s.errorEvent(j, err))
		return
	}

	// Lint admission: a program the abstract interpreter proves faults on
	// every terminating run is refused before any execution budget is
	// spent on it (sources and IR bundles alike).
	if !s.cfg.DisableLint {
		if lerr := prog.LintReject(); lerr != nil {
			s.lintReject.Add(1)
			j.emit(s.errorEvent(j, lerr))
			return
		}
	}

	out := &limitedBuf{max: s.cfg.MaxOutputBytes}
	rc := &kremlin.RunConfig{
		Out:            out,
		Ctx:            j.ctx,
		MaxSteps:       s.cfg.MaxInsns,
		MaxShadowPages: s.cfg.MaxShadowPages,
		MaxHeapWords:   s.cfg.MaxHeapWords,
		Engine:         s.cfg.Engine,
	}
	var incStats inccache.Stats
	if s.cfg.IncCache != nil {
		rc.Cache = s.cfg.IncCache
		rc.CacheScope = j.tenant
		rc.CacheStats = &incStats
	}
	prof, res, err := prog.Profile(rc)
	if s.cfg.IncCache != nil {
		s.incLookups.Add(incStats.Lookups)
		s.incHits.Add(incStats.Hits)
		s.incRecorded.Add(incStats.Recorded)
	}
	if out.buf.Len() > 0 {
		cacheEmit(Event{Type: "output", Data: out.buf.String(), Truncated: out.truncated})
	}
	if err != nil {
		j.emit(s.errorEvent(j, err))
		return
	}

	var pb bytes.Buffer
	if _, err := prof.WriteTo(&pb); err != nil {
		j.emit(s.errorEvent(j, err))
		return
	}
	cacheEmit(Event{
		Type:        "profile",
		Work:        res.Work,
		Steps:       res.Steps,
		DictEntries: len(prof.Dict.Entries),
		RawBytes:    prof.RawBytes(),
		KRPF2:       base64.StdEncoding.EncodeToString(pb.Bytes()),
	})

	pers, ok := Personality(j.personality)
	if !ok {
		pers = planner.OpenMP()
	}
	plan := prog.Plan(prof, pers)
	recs := make([]PlanRec, len(plan.Recs))
	for i, r := range plan.Recs {
		recs[i] = PlanRec{
			Label:      r.Label(),
			Hint:       r.Hint(),
			Safety:     r.Safety,
			SelfP:      r.Stats.SelfP,
			Coverage:   r.Stats.Coverage,
			EstSpeedup: r.EstSpeedup,
		}
	}
	cacheEmit(Event{
		Type:        "plan",
		Personality: pers.Name,
		EstSpeedup:  plan.EstProgramSpeedup,
		Recs:        recs,
	})

	loops := make([]VetLoop, len(prog.Vet.Loops))
	for i, rep := range prog.Vet.Loops {
		loops[i] = VetLoop{Label: rep.Region.Label(), Verdict: rep.Verdict.String()}
	}
	par, ser, unk := prog.Vet.Counts()
	cacheEmit(Event{Type: "vet", Parallel: par, Serial: ser, Unknown: unk, Loops: loops})

	// Only a fully successful job is cached; error outcomes are not
	// content-determined (timeouts, cancellations, config-dependent
	// refusals) and must re-execute.
	if s.jobCache != nil {
		s.jobCache.store(cacheKey, cached)
		if poisonCache {
			s.jobCache.corruptEntry(cacheKey)
		}
	}

	j.emit(Event{Type: "done", ElapsedMS: float64(s.cfg.Now().Sub(j.start)) / float64(time.Millisecond)})
}

// Personality resolves a personality name ("" = openmp). The boolean is
// false for unknown names.
func Personality(name string) (planner.Personality, bool) {
	switch name {
	case "", "openmp":
		return planner.OpenMP(), true
	case "cilk":
		return planner.Cilk(), true
	case "work-only":
		return planner.WorkOnly(), true
	case "work+sp":
		return planner.WorkSP(), true
	}
	return planner.Personality{}, false
}

// errorEvent maps a pipeline error onto the serve error taxonomy. The
// kinds (and the HTTP statuses statusForKind assigns them) are the
// daemon's public error contract, documented in docs/serve.md.
func (s *Server) errorEvent(j *job, err error) Event {
	return Event{Type: "error", Kind: errorKind(j, err), Detail: err.Error()}
}

func errorKind(j *job, err error) string {
	switch kremlin.Classify(err) {
	case kremlin.KindParse:
		return "parse_error"
	case kremlin.KindAnalysis:
		return "analysis_error"
	case kremlin.KindRuntime:
		return "runtime_error"
	case kremlin.KindLint:
		return "lint_error"
	case kremlin.KindLimit:
		switch {
		case errors.Is(err, limits.ErrBudgetExceeded):
			return "budget_exceeded"
		case errors.Is(err, limits.ErrMemCap):
			return "mem_cap_exceeded"
		default: // cancelled: deadline vs client disconnect / injected cancel
			if j != nil && errors.Is(j.ctx.Err(), context.DeadlineExceeded) {
				return "timeout"
			}
			return "cancelled"
		}
	}
	return "internal_error"
}
