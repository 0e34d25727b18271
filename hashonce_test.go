package kremlin

import (
	"io"
	"os"
	"testing"

	"kremlin/internal/frontcache"
	"kremlin/internal/inccache"
	"kremlin/internal/irhash"
)

// TestCompileHashesMatchProfileTime: a Program hashes its module once — a
// front-cached compile before absint, an uncached one at its first cached
// profiling run — and every profiling session reuses those hashes. Nothing
// later in the pipeline may change what they cover.
func TestCompileHashesMatchProfileTime(t *testing.T) {
	fc := frontcache.New(frontcache.MaxEntries, frontcache.MaxBytes)
	for _, path := range []string{"examples/quickstart/quickstart.kr", "examples/gprofcompare/compare.kr"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []CompileOptions{{FrontCache: fc.Scope("")}, {}} {
			p, err := CompileWith(path, string(src), o)
			if err != nil {
				t.Fatal(err)
			}
			if (p.hashes != nil) != (o.FrontCache != nil) {
				t.Fatalf("%s: hashed at compile = %v, want %v", path, p.hashes != nil, o.FrontCache != nil)
			}
			store, err := inccache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var first *irhash.Module
			for run := 0; run < 2; run++ {
				if _, _, err := p.Profile(&RunConfig{Out: io.Discard, Cache: store}); err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = p.hashes
				} else if p.hashes != first {
					t.Errorf("%s: the second profiling run hashed the module again", path)
				}
			}
			now := irhash.Analyze(p.Module)
			for f, h := range p.hashes.Funcs {
				if *now.Funcs[f] != *h {
					t.Errorf("%s: %s hashes changed between compile and profile", path, f.Name)
				}
			}
		}
	}
}
