// Command perfbench is Kremlin's end-to-end and per-layer benchmark. It
// runs one named workload for a fixed wall-clock window, checks every
// operation's output against reference digests, and prints its metrics;
// the last line of standard output is one JSON object.
//
//	perfbench --workload suite-hcpa --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer → metric → workload map.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minSetups is the fewest fresh set-ups a run times; setup_s is their
// median. Runs take their set-ups across the window, one per pass (suites)
// or per daemon (serve-edit), and add set-ups after it only when the window
// held fewer.
const minSetups = 5

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options, ref *reference) (*run, error){
	"suite-hcpa": func(o options, ref *reference) (*run, error) {
		return runSuite(o, "hcpa", suiteInputs(), ref)
	},
	"suite-gprof": func(o options, ref *reference) (*run, error) {
		return runSuite(o, "gprof", suiteInputs(), ref)
	},
	"serve-edit": runServeEdit,
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	root     string  // checkout root; scratch files go under .bench_build
	tr       *tracer // nil in an untraced run
}

// scratch returns (creating it) the directory for the run's temporary files.
func (o options) scratch() (string, error) {
	dir := filepath.Join(o.root, ".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// run collects one workload run's measurements.
type run struct {
	o         options
	setups    []float64            // user CPU seconds per fresh set-up
	setupSys  []float64            // system CPU seconds per fresh set-up
	setupWall []float64            // wall seconds per fresh set-up
	passes    int                  // round-robin passes over the inputs
	order     []string             // input names, first-seen order
	samples   map[string][]float64 // input → untraced op CPU times (ms)
	wall      map[string][]float64 // input → untraced op wall times (ms)
	traced    map[string][]float64 // input → traced op CPU times (ms)
	probes    []float64            // host-speed probe CPU times (ms)
	attempted int
	failed    int
	errs      []string

	outputBytes int       // suites: artifact bytes of one pass
	streamKB    []float64 // serve-edit: NDJSON KiB per op
	servedMS    []float64 // serve-edit traced run: every served op (wall ms)
	memOps      int       // ops whose allocations were counted
}

func newRun(o options) *run {
	return &run{o: o, samples: map[string][]float64{}, wall: map[string][]float64{}, traced: map[string][]float64{}}
}

// times is one measured stretch of work on the clocks the benchmark reads,
// in ms: the process's CPU time (user and system, every thread) and wall
// time.
type times struct{ userMS, sysMS, wallMS float64 }

// cpuMS is the stretch's user plus system CPU time.
func (t times) cpuMS() float64 { return t.userMS + t.sysMS }

// processCPU returns the user and system CPU time the process has used so
// far.
func processCPU() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// measure runs f and returns the CPU and wall time it took. The gated
// metrics read CPU time: on a shared host the hypervisor takes the vCPU
// away for stretches (steal time) that wall time counts and the guest's
// CPU accounting does not.
func measure(f func()) times {
	u0, s0 := processCPU()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	u1, s1 := processCPU()
	return times{userMS: float64(u1-u0) / 1e6, sysMS: float64(s1-s0) / 1e6, wallMS: float64(wall) / 1e6}
}

// timed runs the host-speed probe, then one operation from a collected
// heap, and returns the operation's times. In a traced run it also counts
// the operation's allocation and GC cycles, read outside the timer.
func (r *run) timed(f func()) times {
	r.probes = append(r.probes, probe())
	runtime.GC()
	var before runtime.MemStats
	if r.o.tr != nil {
		runtime.ReadMemStats(&before)
	}
	t := measure(f)
	if r.o.tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.o.tr.add("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		r.o.tr.add("go.gc_cycles", float64(after.NumGC-before.NumGC))
		r.memOps++
	}
	return t
}

// record counts one operation; only a correct one becomes a sample, in
// r.traced for a traced op and in r.samples and r.wall for an untraced one.
func (r *run) record(traced bool, name string, t times, err error) {
	if _, ok := r.samples[name]; !ok {
		r.order = append(r.order, name)
		r.samples[name] = nil
	}
	r.attempted++
	if err != nil {
		r.fail(name, err)
		return
	}
	if traced {
		r.traced[name] = append(r.traced[name], t.cpuMS())
		return
	}
	r.samples[name] = append(r.samples[name], t.cpuMS())
	r.wall[name] = append(r.wall[name], t.wallMS)
}

// addSetup records one fresh set-up's times. setup_s is user CPU time
// only: the serve-edit set-up creates 1,111 inccache files, and the
// kernel's cost for that swings tenfold with the host file system's state.
func (r *run) addSetup(t times) {
	r.setups = append(r.setups, t.userMS/1e3)
	r.setupSys = append(r.setupSys, t.sysMS/1e3)
	r.setupWall = append(r.setupWall, t.wallMS/1e3)
}

func (r *run) fail(name string, err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
	}
}

// opMS is the geomean over inputs of each input's median op time.
func opMS(samples map[string][]float64) float64 {
	var meds []float64
	for _, xs := range samples {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// speedScale is the factor that brings this run's CPU times to the
// reference host speed (see hostspeed.go).
func (r *run) speedScale() float64 {
	if len(r.probes) == 0 {
		return 1
	}
	return refProbeMS / median(r.probes)
}

// endToEnd returns the user-visible metrics of an untraced run.
func (r *run) endToEnd() []metric {
	outKB := float64(r.outputBytes) / 1024
	if len(r.streamKB) > 0 {
		outKB = median(r.streamKB)
	}
	return []metric{
		{"setup_s", median(r.setups) * r.speedScale(), "s"},
		{"op_ms", opMS(r.samples) * r.speedScale(), "ms"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
		{"output_kb", outKB, "KB"},
	}
}

// perLayer returns the per-layer metrics of a traced run, every one on
// every workload; a layer the workload never reaches reads 0.
func (r *run) perLayer() []metric {
	tr := r.o.tr
	ls := tr.layers()
	ops := float64(tr.op)
	per := func(name string) float64 {
		if l := ls[name]; l != nil {
			return l.SelfMS / ops
		}
		return 0
	}
	cnt := func(name string) float64 { return tr.counts[name] / ops }
	c := tr.counts
	plain, gprof, hcpaMS := per("bytecode.plain"), per("kremlib.gprof"), per("kremlib.hcpa")
	var selfHCPA, overGprof, region float64
	if hcpaMS > 0 {
		selfHCPA, overGprof = hcpaMS-gprof, ratio(hcpaMS, gprof)
	}
	if gprof > 0 {
		region = gprof - plain
	}
	var overhead float64
	if len(r.servedMS) > 0 {
		overhead = mean(r.servedMS) - ls["replica"].TotalMS/float64(ls["replica"].Calls)
	}
	streamKB := 0.0
	if len(r.streamKB) > 0 {
		streamKB = mean(r.streamKB)
	}
	memOps := float64(r.memOps)
	return []metric{
		{"parser.ms", per("parser"), "ms"},
		{"types.ms", per("types"), "ms"},
		{"irbuild.ms", per("irbuild"), "ms"},
		{"analysis.ms", per("analysis"), "ms"},
		{"absint.ms", per("absint"), "ms"},
		{"regions.ms", per("regions"), "ms"},
		{"depcheck.ms", per("depcheck"), "ms"},
		{"instrument.ms", per("instrument"), "ms"},
		{"bytecode.compile_ms", per("bytecode.compile"), "ms"},
		{"ir.instrs", cnt("ir.instrs"), "count"},
		{"bytecode.plain_ms", plain, "ms"},
		{"vm.steps", cnt("vm.steps"), "count"},
		{"kremlib.gprof_ms", gprof, "ms"},
		{"kremlib.region_ms", region, "ms"},
		{"kremlib.hcpa_ms", hcpaMS, "ms"},
		{"kremlib.hcpa_self_ms", selfHCPA, "ms"},
		{"kremlib.hcpa_over_gprof_x", overGprof, "x"},
		{"shadow.pages", cnt("shadow.pages"), "count"},
		{"shadow.writes", cnt("shadow.writes"), "count"},
		{"profile.dict_entries", cnt("profile.dict_entries"), "count"},
		{"profile.dict_raw", cnt("profile.dict_raw"), "count"},
		{"profile.dedup_ratio", ratio(c["profile.dict_raw"], c["profile.dict_entries"]), "x"},
		{"hcpa.summarize_ms", per("hcpa.summarize"), "ms"},
		{"planner.plan_ms", per("planner.plan"), "ms"},
		{"planner.render_ms", per("planner.render"), "ms"},
		{"profile.write_ms", per("profile.write"), "ms"},
		{"profile.bytes", cnt("profile.bytes"), "count"},
		{"profile.compression_x", ratio(c["profile.raw_bytes"], c["profile.bytes"]), "x"},
		{"inccache.lookups", cnt("inccache.lookups"), "count"},
		{"inccache.hit_rate", ratio(c["inccache.hits"], c["inccache.lookups"]), "frac"},
		{"inccache.recorded", cnt("inccache.recorded"), "count"},
		{"inccache.skipped_steps", cnt("inccache.skipped_steps"), "count"},
		{"inccache.profile_ms", per("inccache.profile"), "ms"},
		{"serve.overhead_ms", overhead, "ms"},
		{"serve.stream_kb", streamKB, "KB"},
		{"serve.compile_cache_hit_rate", ratio(c["serve.compile_hits"], c["serve.compile_lookups"]), "frac"},
		{"serve.job_cache_hit_rate", ratio(c["serve.job_hits"], c["serve.job_lookups"]), "frac"},
		{"serve.compile_cache_mb", c["serve.compile_cache_mb"], "MB"},
		{"serve.compile_cache_mb_per_job", ratio(c["serve.compile_cache_mb_sum"], c["serve.session_jobs"]), "MB"},
		{"go.alloc_mb", ratio(c["go.alloc_mb"], memOps), "MB"},
		{"go.gc_cycles", ratio(c["go.gc_cycles"], memOps), "count"},
		{"trace.overhead_ms", opMS(r.traced) - opMS(r.samples), "ms"},
		{"op_cpu_ms", opMS(r.samples), "ms"},
		{"op_wall_ms", opMS(r.wall), "ms"},
		{"setup_wall_s", median(r.setupWall), "s"},
		{"setup_sys_s", median(r.setupSys), "s"},
		{"host.probe_ms", median(r.probes), "ms"},
		{"failed_frac", ratio(float64(r.failed), float64(r.attempted)), "frac"},
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// result is the final JSON line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the host stamp, the per-input rows and the metrics, then
// the JSON result line.
func (r *run) report(w *bufio.Writer) error {
	o := r.o
	host := hostStamp(o.seed)
	fmt.Fprintf(w, "# host nproc=%v gomaxprocs=%v go=%v %v/%v cpu=%q seed=%v\n",
		host["nproc"], host["gomaxprocs"], host["go"], host["goos"], host["goarch"], host["cpu"], o.seed)
	fmt.Fprintf(w, "# workload=%s seconds=%v trace=%v passes=%d probe_ms=%.4f speed_scale=%.4f\n",
		o.workload, o.seconds.Seconds(), o.tr != nil, r.passes, median(r.probes), r.speedScale())
	fmt.Fprintf(w, "# setups user_s=%s sys_s=%s wall_s=%s\n", fmtList(r.setups), fmtList(r.setupSys), fmtList(r.setupWall))
	fmt.Fprintf(w, "%-12s %8s %10s %10s %10s", "input", "samples", "median_ms", "p90_ms", "wall_ms")
	if o.tr != nil {
		fmt.Fprintf(w, " %8s %10s", "traced", "median_ms")
	}
	fmt.Fprintln(w)
	for _, name := range r.order {
		xs := r.samples[name]
		fmt.Fprintf(w, "%-12s %8d %10.3f %10.3f %10.3f", name, len(xs), median(xs), quantile(xs, 0.9), median(r.wall[name]))
		if o.tr != nil {
			fmt.Fprintf(w, " %8d %10.3f", len(r.traced[name]), median(r.traced[name]))
		}
		fmt.Fprintln(w)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "# FAILED %s\n", e)
	}
	ms := r.endToEnd()
	if o.tr != nil {
		ms = r.perLayer()
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]valueUnit{},
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%-32s %16.4f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = valueUnit{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	return w.Flush()
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, ",")
}

func main() {
	workload := flag.String("workload", "", "workload: suite-hcpa, suite-gprof or serve-edit")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	steady := flag.Int("steady", 0, "steadiness mode: run the workload N times with seeds seed..seed+N-1 and print each metric's spread")
	genRef := flag.String("gen-reference", "", "regenerate the reference digests into this file with the tree-walking engine")
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if *genRef != "" {
		if err := generateReference(*genRef); err != nil {
			fatal(err)
		}
		return
	}
	runner, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload suite-hcpa|suite-gprof|serve-edit --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(*steady, *workload, *seed, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	ref, err := loadReference()
	if err != nil {
		fatal(err)
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), root: root}
	if *trace == 1 {
		o.tr = newTracer()
	}
	r, err := runner(o, ref)
	if err != nil {
		fatal(err)
	}
	if o.tr != nil {
		path := filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
		if err := o.tr.write(path, hostStamp(o.seed)); err != nil {
			fatal(err)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	if err := r.report(bufio.NewWriter(os.Stdout)); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// steadiness reruns this binary n times, one process per seed, and prints
// each metric's median, quartiles and spreads — the figures the benchmark's
// bounds are judged against.
func steadiness(n int, workload string, seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d operations failed", s, res.Failed, res.Attempted)
		}
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
		fmt.Printf("# seed %d: %s\n", s, lines[len(lines)-1])
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %12s %12s %12s %8s %8s %s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "unit")
	for _, k := range names {
		xs := values[k]
		med := median(xs)
		q1, q3 := quartiles(xs)
		lo, hi := quantile(xs, 0), quantile(xs, 1)
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %8.3f %8.3f %s\n", k, med, q1, q3, ratio(q3-q1, med), ratio(hi-lo, med), units[k])
	}
	return nil
}
