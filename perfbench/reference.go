package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"

	"kremlin"
	"kremlin/internal/krgen"
	"kremlin/internal/planner"
	"kremlin/internal/serve"
)

// reference.json holds the expected digests of every operation's outputs.
// They are produced by `-gen-reference` with the tree-walking reference
// interpreter, which shares no dispatch code with the bytecode VM the timed
// operations run on, so a VM, cache or runtime bug cannot bless itself.
//
//go:embed reference.json
var referenceJSON []byte

// suiteRef is one suite program's expected digests.
type suiteRef struct {
	Output   string `json:"output"`   // program print output
	KRPF2    string `json:"krpf2"`    // serialized HCPA profile
	Plan     string `json:"plan"`     // rendered OpenMP plan
	Hotspots string `json:"hotspots"` // rendered gprof flat profile
}

// reference is the whole table.
type reference struct {
	Engine string              `json:"engine"`
	Suite  map[string]suiteRef `json:"suite"`
	// ServeBase is the NDJSON digest (elapsed_ms stripped) of the unedited
	// scale program; ServeEdits[i] that of the program with helper i edited.
	ServeBase  string   `json:"serve_base"`
	ServeEdits []string `json:"serve_edits"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if len(ref.Suite) == 0 || ref.ServeBase == "" || len(ref.ServeEdits) != scaleConfig().Funcs {
		return nil, errors.New("reference.json: incomplete table; regenerate with -gen-reference")
	}
	return &ref, nil
}

// digest is a 64-bit truncated SHA-256, plenty to catch any output change.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// stripElapsed removes the one nondeterministic field of a served NDJSON
// stream: the wall time in the final "done" event.
func stripElapsed(stream []byte) ([]byte, error) {
	body := bytes.TrimSuffix(stream, []byte("\n"))
	i := bytes.LastIndexByte(body, '\n')
	if !bytes.HasPrefix(body[i+1:], []byte(`{"event":"done"`)) {
		return nil, errors.New("stream does not end with a done event")
	}
	out := append([]byte(nil), body[:i+1]...)
	return append(out, `{"event":"done"}`+"\n"...), nil
}

// generateReference recomputes reference.json with the tree-walking engine
// and no caches, two edits at a time. It runs untimed and is never on a
// measured path.
func generateReference(path string) error {
	const workers = 2
	ref := reference{Engine: "tree", Suite: map[string]suiteRef{}}
	tree := &kremlin.RunConfig{Engine: kremlin.EngineTree}
	for _, in := range suiteInputs() {
		p, err := kremlin.Compile(in.file, in.src)
		if err != nil {
			return err
		}
		var out bytes.Buffer
		cfg := *tree
		cfg.Out = &out
		prof, _, err := p.Profile(&cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		var kb bytes.Buffer
		if _, err := prof.WriteTo(&kb); err != nil {
			return err
		}
		var gout bytes.Buffer
		cfg.Out = &gout
		res, err := p.RunGprof(&cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		if !bytes.Equal(out.Bytes(), gout.Bytes()) {
			return fmt.Errorf("%s: profiled and gprof runs print different output", in.name)
		}
		ref.Suite[in.name] = suiteRef{
			Output:   digest(out.Bytes()),
			KRPF2:    digest(kb.Bytes()),
			Plan:     digest([]byte(p.Plan(prof, planner.OpenMP()).Render())),
			Hotspots: digest([]byte(kremlin.RenderHotspots(p.Hotspots(res)))),
		}
	}

	srv := serve.New(serve.Config{Engine: kremlin.EngineTree, Workers: workers})
	defer srv.Drain(context.Background())
	h := srv.Handler()
	served := func(src string) (string, error) {
		req := httptest.NewRequest(http.MethodPost, "/profile?name="+scaleName, strings.NewReader(src))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("reference job: status %d: %s", rec.Code, rec.Body.String())
		}
		body, err := stripElapsed(rec.Body.Bytes())
		if err != nil {
			return "", err
		}
		return digest(body), nil
	}
	cfg := scaleConfig()
	var err error
	if ref.ServeBase, err = served(krgen.GenerateScale(scaleSeed, cfg, nil)); err != nil {
		return err
	}
	ref.ServeEdits = make([]string, cfg.Funcs)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				d, err := served(krgen.ScaleEdit(scaleSeed, cfg, i))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				ref.ServeEdits[i] = d
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < cfg.Funcs; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
