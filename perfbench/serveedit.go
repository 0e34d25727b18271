package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"kremlin"
	"kremlin/internal/inccache"
	"kremlin/internal/interp"
	"kremlin/internal/krgen"
	"kremlin/internal/planner"
	"kremlin/internal/profile"
	"kremlin/internal/serve"
)

// The serve-edit input: a krgen scale program of ~10k lines (1,111 sealed
// helpers, under absint's 100k-instruction gate). The program is fixed, so
// its reference digests can be committed; the workload seed only chooses
// which helpers get edited, and in what order.
const (
	scaleName  = "scale.kr"
	scaleSeed  = 1
	scaleLines = 10000
	scaleIters = 60
	// editsPerSession bounds one daemon's lifetime. Every edit leaves one
	// compiled program (~20 MB) in the daemon's caches, and the default
	// compile cache holds 256 programs with no byte bound, so a daemon kept
	// for the whole window would grow with the number of edits that fit in
	// it. A fixed session length makes peak RSS a property of the workload
	// and keeps the process near 350 MB; a fresh daemon then starts cold.
	// The cost is that growth past 12 programs never shows in peak_rss_mb;
	// serve.compile_cache_mb_per_job reports the retention per job instead.
	editsPerSession = 12
	// tenant is the scope the daemon gives a loopback client without an
	// X-Kremlin-Tenant header; the in-process replica uses the same one.
	tenant = "127.0.0.1"
)

// kremlin-serve's flag defaults (-job-cache, -compile-cache, -inccache-max).
// TestServeDefaultsMatchFlags keeps them equal to cmd/kremlin-serve's.
const (
	defaultJobCache     = 256
	defaultCompileCache = 256
	defaultIncCacheMax  = 1 << 16
)

func scaleConfig() krgen.ScaleConfig { return krgen.ScaleForLines(scaleLines, scaleIters) }

// daemon is an in-process kremlin-serve on a loopback port, configured
// with the command's default flags plus a shared on-disk inccache.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{} // closed when hs.Serve returns
}

func startDaemon(tmp string) (*daemon, error) {
	dir, err := os.MkdirTemp(tmp, "inccache-")
	if err != nil {
		return nil, err
	}
	store, err := inccache.Open(dir)
	if err != nil {
		return nil, err
	}
	store.SetMaxRecords(defaultIncCacheMax)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		// The zero values of the other fields are kremlin-serve's other
		// defaults.
		srv:    serve.New(serve.Config{JobCache: defaultJobCache, CompileCache: defaultCompileCache, IncCache: store}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{DisableCompression: true}},
		served: make(chan struct{}),
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln)
	}()
	return d, nil
}

// stop shuts the listener and drains the worker pool; it returns once every
// goroutine the daemon started has ended. The cache directory stays.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	<-d.served
	_ = d.srv.Drain(ctx)
}

// submit posts one program and reads the NDJSON stream to its last byte.
func (d *daemon) submit(src string) ([]byte, error) {
	resp, err := d.client.Post(d.url+"/profile?name="+scaleName, "text/plain", strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return body, nil
}

// statz fetches the daemon's counters over HTTP.
func (d *daemon) statz() (serve.Stats, error) {
	var st serve.Stats
	resp, err := d.client.Get(d.url + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// syncDir flushes dir's metadata to disk; errors are ignored, since it only
// moves deferred file-system work out of later timings.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

func checkStream(body []byte, want string) error {
	stripped, err := stripElapsed(body)
	if err != nil {
		return err
	}
	if d := digest(stripped); d != want {
		return fmt.Errorf("NDJSON digest %s, want %s", d, want)
	}
	return nil
}

// session is one daemon plus, in a traced run, the replica's mirror of the
// daemon's inccache: the same records written in the same order, so the
// replica sees exactly the hits the daemon saw.
type session struct {
	d      *daemon
	mirror *inccache.Store
	start  serve.Stats
}

// startSession starts a daemon and profiles the unedited program through
// it cold; the returned times are one set-up sample.
func startSession(tmp, baseSrc string, ref *reference) (*daemon, times, error) {
	runtime.GC()
	var d *daemon
	var body []byte
	var err error
	t := measure(func() {
		if d, err = startDaemon(tmp); err == nil {
			body, err = d.submit(baseSrc)
		}
	})
	if d == nil {
		return nil, t, err
	}
	if err == nil {
		err = checkStream(body, ref.ServeBase)
	}
	if err != nil {
		d.stop()
		return nil, t, fmt.Errorf("unedited program: %w", err)
	}
	return d, t, nil
}

// openMirror builds a traced session's replica cache: the unedited program
// profiled once, as the daemon did at session start.
func (s *session) openMirror(tmp, baseSrc string) error {
	dir, err := os.MkdirTemp(tmp, "mirror-")
	if err != nil {
		return err
	}
	if s.mirror, err = inccache.Open(dir); err != nil {
		return err
	}
	s.mirror.SetMaxRecords(defaultIncCacheMax)
	p, err := kremlin.Compile(scaleName, baseSrc)
	if err != nil {
		return err
	}
	_, _, err = p.Profile(&kremlin.RunConfig{Out: io.Discard, Cache: s.mirror, CacheScope: tenant})
	return err
}

func (s *session) close() { s.d.stop() }

// replica runs the steps a served job takes — compile, lint, profile
// through the shared inccache, serialize, plan — in-process under spans,
// then the attribution runs (plain, gprof, uncached HCPA, render) outside
// the replica span.
func (s *session) replica(tr *tracer, src string) error {
	var p *kremlin.Program
	var prof *profile.Profile
	var plan *planner.Plan
	var err error
	tr.do("replica", func() {
		if p, err = compileTraced(tr, scaleName, src); err != nil {
			return
		}
		if tr.do("lint", func() { err = p.LintReject() }); err != nil {
			return
		}
		var st inccache.Stats
		tr.do("inccache.profile", func() {
			prof, _, err = p.Profile(&kremlin.RunConfig{
				Out: io.Discard, Cache: s.mirror, CacheScope: tenant, CacheStats: &st,
				MaxSteps: serve.DefaultMaxInsns, MaxShadowPages: serve.DefaultMaxPages,
				MaxHeapWords: serve.DefaultMaxHeap,
			})
		})
		if err != nil {
			return
		}
		tr.add("inccache.skipped_steps", float64(st.SkippedSteps))
		writeTraced(tr, prof)
		plan = planTraced(tr, p, prof)
	})
	if err != nil {
		return err
	}
	if err := attribute(tr, p, true); err != nil {
		return err
	}
	runtime.GC()
	var res *interp.Result
	var uncached *profile.Profile
	tr.do("kremlib.hcpa", func() { uncached, res, err = p.Profile(&kremlin.RunConfig{Out: io.Discard}) })
	if err != nil {
		return err
	}
	profileCounts(tr, uncached, res)
	renderTraced(tr, plan)
	return nil
}

// addStatz accumulates the daemon counters of one session's edits.
func addStatz(tr *tracer, from, to serve.Stats) {
	tr.add("inccache.lookups", float64(to.IncLookups-from.IncLookups))
	tr.add("inccache.hits", float64(to.IncHits-from.IncHits))
	tr.add("inccache.recorded", float64(to.IncRecorded-from.IncRecorded))
	tr.add("serve.compile_hits", float64(to.CompileHits-from.CompileHits))
	tr.add("serve.compile_lookups", float64(to.CompileHits+to.CompileMisses-from.CompileHits-from.CompileMisses))
	tr.add("serve.job_hits", float64(to.CacheHits-from.CacheHits))
	tr.add("serve.job_lookups", float64(to.CacheHits+to.CacheMisses-from.CacheHits-from.CacheMisses))
	mb := float64(to.CompileBytes) / (1 << 20)
	if mb > tr.counts["serve.compile_cache_mb"] {
		tr.counts["serve.compile_cache_mb"] = mb
	}
	// Retention per job: every job of the session, the unedited program
	// included, compiled a distinct program into the cache.
	tr.add("serve.compile_cache_mb_sum", mb)
	tr.add("serve.session_jobs", float64(to.CompileMisses+to.CompileHits-from.CompileMisses-from.CompileHits+1))
}

// runServeEdit measures the serve-edit workload: one closed-loop client
// submitting single-helper edits of the scale program.
func runServeEdit(o options, ref *reference) (*run, error) {
	r := newRun(o)
	cfg := scaleConfig()
	baseSrc := krgen.GenerateScale(scaleSeed, cfg, nil)
	scratch, err := o.scratch()
	if err != nil {
		return nil, err
	}
	// Every daemon's cache directory stays until the run ends: deleting
	// 1,111 files leaves the file system deferred work (a journal commit,
	// and block discards on a disk mounted with discard) that would land
	// on the next daemon's timed set-up. At the end, syncing the directory
	// forces that work into this run rather than the start of the next.
	tmp, err := os.MkdirTemp(scratch, "serve-edit-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(tmp)
		syncDir(scratch)
	}()
	var s *session
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	// newSession replaces the daemon. Its set-up time is a setup_s sample:
	// the first daemon starts before the window, the others replace a
	// daemon inside it, so the samples are spread over the window.
	newSession := func() error {
		if s != nil {
			s.close()
			s = nil
		}
		d, t, err := startSession(tmp, baseSrc, ref)
		if err != nil {
			return err
		}
		s = &session{d: d}
		r.addSetup(t)
		if o.tr == nil {
			return nil
		}
		if err := s.openMirror(tmp, baseSrc); err != nil {
			return err
		}
		s.start, err = d.statz()
		return err
	}
	// flushStatz adds the session's daemon counters to the trace.
	flushStatz := func() error {
		if o.tr == nil {
			return nil
		}
		st, err := s.d.statz()
		if err == nil {
			addStatz(o.tr, s.start, st)
		}
		return err
	}
	if err := newSession(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	perm := newRand(o.seed).Perm(cfg.Funcs)
	deadline := time.Now().Add(o.seconds)
	edits := 0
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		if k >= len(perm) {
			break
		}
		if edits == editsPerSession {
			if err := flushStatz(); err != nil {
				return nil, err
			}
			if err := newSession(); err != nil {
				return nil, err
			}
			edits = 0
		}
		edits++
		idx := perm[k]
		src := krgen.ScaleEdit(scaleSeed, cfg, idx)
		var body []byte
		// In a traced run every other served op sits in a client-side
		// span, so the span's own cost shows as trace.overhead_ms.
		spanned := o.tr != nil && k%2 == 1
		o.tr.beginOp()
		t := r.timed(func() {
			if spanned {
				o.tr.do("serve.job", func() { body, err = s.d.submit(src) })
			} else {
				body, err = s.d.submit(src)
			}
		})
		if err == nil {
			err = checkStream(body, ref.ServeEdits[idx])
		}
		r.record(spanned, "scale-edit", t, err)
		if err == nil {
			r.streamKB = append(r.streamKB, float64(len(body))/1024)
		}
		if o.tr != nil {
			r.servedMS = append(r.servedMS, t.wallMS)
			runtime.GC()
			if rerr := s.replica(o.tr, src); rerr != nil {
				return nil, fmt.Errorf("replica of edit %d: %w", idx, rerr)
			}
		}
	}
	if err := flushStatz(); err != nil {
		return nil, err
	}
	s.close()
	s = nil
	// A window too short for minSetups daemons is topped up after it.
	for len(r.setups) < minSetups {
		d, t, err := startSession(tmp, baseSrc, ref)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d.stop()
		r.addSetup(t)
	}
	return r, nil
}
