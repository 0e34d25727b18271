package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"kremlin"
)

// Handler returns the daemon's HTTP API:
//
//	POST /profile?name=prog.kr&personality=openmp
//	    Body: Kr source. Response: NDJSON event stream (see Event).
//	POST /v1/jobs?name=prog.kr&personality=openmp
//	    Body: Kr source, or a precompiled KRIB1 IR bundle when
//	    Content-Type is application/x-kremlin-ir. Same response stream.
//	GET /healthz
//	    200 "ok" while accepting work, 503 "draining" during drain.
//	GET /statz
//	    JSON Stats snapshot.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /profile", s.handleProfile)
	mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	return mux
}

// bundleContentType marks a request body as a precompiled KRIB1 IR bundle.
const bundleContentType = "application/x-kremlin-ir"

// statusForKind maps the error taxonomy onto HTTP statuses. Client
// mistakes are 4xx, daemon faults 5xx, resource walls 413/429/504.
func statusForKind(kind string) int {
	switch kind {
	case "parse_error", "analysis_error":
		return http.StatusBadRequest // 400
	case "runtime_error", "lint_error":
		return http.StatusUnprocessableEntity // 422
	case "budget_exceeded", "mem_cap_exceeded", "body_too_large":
		return http.StatusRequestEntityTooLarge // 413
	case "timeout", "cancelled":
		return http.StatusGatewayTimeout // 504
	case "queue_full", "rate_limited":
		return http.StatusTooManyRequests // 429
	case "draining":
		return http.StatusServiceUnavailable // 503
	default: // panic, internal_error
		return http.StatusInternalServerError // 500
	}
}

// reject refuses a request before admission with a single JSON error
// object shaped exactly like a streamed "error" event.
func (s *Server) reject(w http.ResponseWriter, kind, detail string) {
	w.Header().Set("Content-Type", "application/json")
	if st := statusForKind(kind); st == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(st)
	} else {
		w.WriteHeader(st)
	}
	_ = json.NewEncoder(w).Encode(Event{Type: "error", Kind: kind, Detail: detail})
}

// tenant identifies the caller for rate limiting: the X-Kremlin-Tenant
// header when present, else the client host.
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Kremlin-Tenant"); t != "" {
		return t
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// handleProfile is the original source-only submission endpoint.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	s.handleSubmit(w, r, false)
}

// handleJobs additionally accepts precompiled IR bundles by Content-Type.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.handleSubmit(w, r, true)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, allowBundle bool) {
	if s.limiter != nil && !s.limiter.Allow(tenant(r), s.cfg.Now()) {
		s.rateLimited.Add(1)
		s.reject(w, "rate_limited", "tenant over rate limit")
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.reject(w, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	isBundle := false
	if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) == bundleContentType {
		if !allowBundle {
			s.reject(w, "parse_error", "IR bundles are accepted only at /v1/jobs")
			return
		}
		// The full structural validation happens at compile time; the
		// magic check just gives obviously-mislabeled bodies a crisp
		// refusal before they occupy a queue slot.
		if !kremlin.IsBundle(body) {
			s.reject(w, "parse_error", "body is not a KRIB1 bundle")
			return
		}
		isBundle = true
	}

	name := r.URL.Query().Get("name")
	if name == "" {
		name = "input.kr"
	}
	pers := r.URL.Query().Get("personality")
	if _, ok := Personality(pers); !ok {
		s.reject(w, "analysis_error", fmt.Sprintf("unknown personality %q", pers))
		return
	}

	// The job deadline starts at admission: queue wait spends the same
	// budget as execution, so a drowning daemon fails jobs fast instead
	// of servicing them long after the client gave up.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.JobTimeout)
	defer cancel() // unblocks the worker's emit if we stop reading early
	j := &job{
		seq:         s.seq.Add(1),
		name:        name,
		tenant:      tenant(r),
		personality: pers,
		ctx:         ctx,
		cancel:      cancel,
		events:      make(chan Event, 16),
		start:       s.cfg.Now(),
	}
	if isBundle {
		j.bundle = body
	} else {
		j.src = string(body)
	}
	if err := s.submit(j); err != nil {
		if errors.Is(err, errDraining) {
			s.reject(w, "draining", "daemon is draining; retry elsewhere")
		} else {
			s.reject(w, "queue_full", "job queue full; retry later")
		}
		return
	}

	// Stream events as NDJSON. The status line is decided by the first
	// event (errors map onto 4xx/5xx), so WriteHeader is deferred until
	// the worker produces it.
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	wroteHeader := false
	for e := range j.events {
		if !wroteHeader {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if e.Type == "error" {
				w.WriteHeader(statusForKind(e.Kind))
			} else {
				w.WriteHeader(http.StatusOK)
			}
			wroteHeader = true
		}
		if err := enc.Encode(e); err != nil {
			// Client went away; cancel the job and drain the channel so
			// the worker is never blocked on a dead reader.
			cancel()
			for range j.events {
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if !wroteHeader {
		// The worker closed the stream without any event — only possible
		// through a bug; keep the contract of always answering.
		s.reject(w, "internal_error", "job produced no events")
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Stats().Draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Stats())
}
