// Command simbench is the simulator's benchmark. It runs one of three
// seed-generated workloads through the simulator's Go APIs for a fixed
// host time, checks the modelled outputs, and prints every metric by
// name with its unit; the last line of standard output is one JSON
// object for machine readers.
//
// The people who use this simulator run paper experiments and wait on
// host wall time, and need the modelled numbers to stay exactly what
// the model says. So the end-to-end metrics measure simulator speed and
// memory (sim_pkts_per_s, wall_s, setup_s, peak_rss_mb), while the
// modelled results are a gate: a run fails when its fingerprint of
// modelled outputs differs from the one recorded for its seed (or, for
// an unrecorded seed, from the first pass of the same invocation), when
// an invariants auditor reports a violation, when a flow's counters
// break generated >= delivered + drops, or when it panics.
//
// With --trace 1 the benchmark instead reports per-layer metrics: it
// first runs untraced passes (counts, allocations, per-architecture
// rates and, on the rack, the pool-width speed-up), then traced passes
// under a CPU profile with spans and a datapath wrapper (self-time
// shares per simulator package, datapath call cost, tracing overhead).
// Metrics of a layer a workload does not run read 0: the baselines off
// kv-5arch, runner.speedup off rack-failover, and datapath.* on the rack,
// where the fleet type-asserts the concrete datapath and so cannot be
// wrapped.
//
// The benchmark is a Go module of its own that imports the simulator's
// packages through a replace directive. Usage, from the repository root:
//
//	bash simbench/run.sh --workload kv-5arch --seed 1 --seconds 30 --trace 0
//	bash simbench/run.sh --workload burst-bulk --record-seeds 0-31
//	bash simbench/run.sh --manifest BENCHMARK.json
//	(cd simbench && go test .)
//
// --record-seeds re-records fingerprints, and is only for a change that
// is meant to move the modelled outputs.
package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the profile and spans
	src      string // simulator source tree, digested into the stamp
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traceFlag int
	var manifest, recordSeeds, recordDir string
	fl.StringVar(&o.workload, "workload", "", "workload to run: kv-5arch, burst-bulk or rack-failover")
	fl.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fl.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure for")
	fl.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fl.StringVar(&o.out, "out", ".bench_build/simbench", "directory for the CPU profile and spans of a traced run")
	fl.StringVar(&o.src, "src", ".", "root of the simulator sources, digested into the result stamp")
	fl.StringVar(&manifest, "manifest", "", "write the BENCHMARK.json manifest to this path and exit")
	fl.StringVar(&recordSeeds, "record-seeds", "", "record the workload's fingerprints for a seed range such as 0-63 and exit")
	fl.StringVar(&recordDir, "record-dir", "simbench/fingerprints", "directory the recorded fingerprints are written to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	var err error
	switch {
	case manifest != "":
		err = writeManifest(manifest)
	case recordSeeds != "":
		err = record(o.workload, recordSeeds, recordDir, stdout)
	default:
		_, err = invoke(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	return 0
}

// report is what one invocation measured.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	fingerprints      map[string]string // arch -> modelled outputs of the first pass
}

// session is one invocation: a workload run closed-loop for a budget.
type session struct {
	o     options
	wl    *workloadDef
	w     io.Writer
	ck    *checker
	rep   *report
	start time.Time
	nproc int
}

// invoke runs one workload for o.seconds and prints its metrics.
func invoke(o options, stdout io.Writer) (*report, error) {
	wl := workloadByName(o.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "simbench %s seed=%d seconds=%g trace=%t\n", wl.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "stamp: %s\n", stamp(o))
	fmt.Fprintf(w, "params: %s\n", wl.params)
	fmt.Fprintf(w, "why: %s\n", wl.why)

	s := &session{o: o, wl: wl, w: w, ck: newChecker(wl.name, o.seed, w),
		rep: &report{metrics: map[string]float64{}}, start: time.Now(), nproc: runtime.NumCPU()}
	budget := time.Duration(o.seconds * float64(time.Second))
	var err error
	if o.trace {
		err = s.measurePerLayer(budget)
	} else {
		err = s.measureEndToEnd(budget)
	}
	if err != nil {
		return nil, err
	}
	rep := s.rep
	rep.fingerprints = s.ck.first
	fmt.Fprintf(w, "runs_failed %d / runs_total %d\n", rep.failed, rep.attempted)
	line, err := json.Marshal(resultLine(rep, o.trace))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rep, w.Flush()
}

// runPass runs one pass and applies the output check to each of its runs.
func (s *session) runPass(opts passOpts) pass {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	p := pass{runs: s.wl.pass(s.o.seed, opts), wall: time.Since(t0), pool: opts.pool, traced: opts.spans != nil}
	runtime.ReadMemStats(&ms1)
	p.gcCycles = ms1.NumGC - ms0.NumGC
	for _, r := range p.runs {
		s.rep.attempted++
		if !s.ck.check(r) {
			s.rep.failed++
		}
	}
	fmt.Fprintf(s.w, "pass %d: pool=%d traced=%t wall_s=%.4f setup_s=%.5f sim_pkts_per_s=%.0f\n",
		s.rep.attempted/len(s.wl.archs), p.pool, p.traced, p.wall.Seconds(), p.setup().Seconds(), p.rate())
	return p
}

// loop repeats round closed-loop until the invocation has run for until;
// at least one round runs however short the budget.
func (s *session) loop(until time.Duration, round func()) {
	for first := true; first || time.Since(s.start) < until; first = false {
		round()
	}
}

// measureEndToEnd measures the end-to-end metrics as medians over passes.
func (s *session) measureEndToEnd(budget time.Duration) error {
	var passes []pass
	s.loop(budget, func() { passes = append(passes, s.runPass(passOpts{pool: s.nproc})) })
	m := s.rep.metrics
	m["sim_pkts_per_s"] = medianOf(passes, pass.rate)
	m["wall_s"] = medianOf(passes, func(p pass) float64 { return p.wall.Seconds() })
	m["setup_s"] = medianOf(passes, func(p pass) float64 { return p.setup().Seconds() })
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	m["peak_rss_mb"] = rss
	printMetrics(s.w, s.rep, endToEnd)
	return nil
}

// measurePerLayer measures the per-layer metrics: untraced passes first, then
// traced passes under the CPU profiler.
func (s *session) measurePerLayer(budget time.Duration) error {
	o, wl, w, nproc := s.o, s.wl, s.w, s.nproc
	var plain, serial []pass
	s.loop(budget*2/5, func() {
		if wl.rack {
			// The same rack stepped serially and on the pool: the wall
			// ratio is runner.speedup, and both must fingerprint alike.
			serial = append(serial, s.runPass(passOpts{pool: 1}))
		}
		plain = append(plain, s.runPass(passOpts{pool: nproc}))
	})

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(o.out, fmt.Sprintf("cpu-%s-seed%d.pprof", wl.name, o.seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	spans := newSpanLog()
	var traced []pass
	s.loop(budget, func() { traced = append(traced, s.runPass(passOpts{spans: spans, pool: nproc})) })
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return err
	}

	m := s.rep.metrics
	for k, v := range layerCounts(plain[0]) {
		m[k] = v
	}
	perPkt := func(f func(runResult) uint64) func(pass) float64 {
		return func(p pass) float64 {
			var sum uint64
			for _, r := range p.runs {
				sum += f(r)
			}
			return div(float64(sum), float64(p.delivered()))
		}
	}
	m["runtime.allocs_per_pkt"] = medianOf(plain, perPkt(func(r runResult) uint64 { return r.allocs }))
	m["runtime.alloc_bytes_per_pkt"] = medianOf(plain, perPkt(func(r runResult) uint64 { return r.allocBytes }))
	m["runtime.gc_cycles"] = medianOf(plain, func(p pass) float64 { return float64(p.gcCycles) })
	m["runner.speedup"] = 0
	if len(serial) > 0 {
		wall := func(p pass) float64 { return p.wall.Seconds() }
		m["runner.speedup"] = div(medianOf(serial, wall), medianOf(plain, wall))
		fmt.Fprintf(w, "runner.speedup: pool width %d vs 1 on %d CPUs (GOMAXPROCS %d), %d pass pairs\n",
			nproc, runtime.NumCPU(), runtime.GOMAXPROCS(0), len(serial))
	}
	m["trace.overhead_ratio"] = div(medianOf(traced, pass.rate), medianOf(plain, pass.rate))

	dp := map[string]dpStats{}
	dpPkts := map[string]uint64{}
	for _, p := range traced {
		for _, r := range p.runs {
			st := dp[r.arch]
			st.Calls += r.dp.Calls
			st.BusyNs += r.dp.BusyNs
			dp[r.arch] = st
			dpPkts[r.arch] += r.delivered()
		}
	}
	for _, a := range archNames {
		var rates, events, allocs []float64
		for _, p := range plain {
			for _, r := range p.runs {
				if r.arch == a {
					n := float64(r.delivered())
					rates = append(rates, div(n, r.measure.Seconds()))
					events = append(events, div(float64(r.events), n))
					allocs = append(allocs, div(float64(r.allocs), n))
				}
			}
		}
		m["arch."+a+".sim_pkts_per_s"] = median(rates)
		m["arch."+a+".events_per_pkt"] = median(events)
		m["arch."+a+".allocs_per_pkt"] = median(allocs)
		m["datapath."+a+".calls_per_pkt"] = div(float64(dp[a].Calls), float64(dpPkts[a]))
		m["datapath."+a+".busy_ns_per_pkt"] = div(float64(dp[a].BusyNs), float64(dpPkts[a]))
	}

	shares, err := profileShares(profPath)
	if err != nil {
		return err
	}
	var sum float64
	for k, v := range shares {
		m[k] = v
		sum += v
	}
	fmt.Fprintf(w, "profile: %s (self shares sum to %.6f)\n", profPath, sum)
	spansPath := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", wl.name, o.seed))
	if err := writeSpans(spansPath, spans, dp); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %s (%d spans)\n", spansPath, len(spans.spans))
	var fill []float64
	for _, r := range plain[0].runs {
		fill = append(fill, r.llcFill)
	}
	fmt.Fprintf(w, "warm-up: DDIO occupancy / capacity when each run's window opened: %.3f\n", fill)
	printMetrics(w, s.rep, perLayer())
	return nil
}

func printMetrics(w io.Writer, rep *report, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "metric %-34s %16.6g %s\n", d.Name, rep.metrics[d.Name], d.Unit)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func resultLine(rep *report, traced bool) resultJSON {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	out := resultJSON{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{rep.metrics[d.Name], d.Unit}
	}
	return out
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}

// stamp identifies what produced a result: commit (when built inside a
// git checkout), a digest of the simulator sources, toolchain, CPU and
// seed.
func stamp(o options) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("commit=%s source_sha256=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d",
		commit, sourceDigest(o.src), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), o.seed)
}

// sourceDigest hashes every Go source and module file under root,
// skipping hidden directories, so a result can be tied to its sources
// where no commit is available.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unavailable"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

//go:embed fingerprints/*.json
var recordedFS embed.FS

// checker applies the output check to every run.
type checker struct {
	workload string
	seed     int64
	recorded map[string]string // arch -> modelled outputs recorded for this seed
	first    map[string]string // arch -> modelled outputs of this invocation's first run
	w        io.Writer
}

func newChecker(workload string, seed int64, w io.Writer) *checker {
	c := &checker{workload: workload, seed: seed, first: map[string]string{}, w: w}
	c.recorded = loadRecorded(workload)[strconv.FormatInt(seed, 10)]
	if c.recorded == nil {
		fmt.Fprintf(w, "fingerprint: no recorded fingerprint for seed %d; every pass is checked against the first\n", seed)
	} else {
		fmt.Fprintf(w, "fingerprint: every run is checked against the fingerprint recorded for seed %d\n", seed)
	}
	return c
}

// loadRecorded reads the embedded fingerprints of a workload:
// seed -> arch -> modelled outputs.
func loadRecorded(workload string) map[string]map[string]string {
	out := map[string]map[string]string{}
	b, err := recordedFS.ReadFile("fingerprints/" + workload + ".json")
	if err != nil {
		return out
	}
	if err := json.Unmarshal(b, &out); err != nil {
		panic(fmt.Sprintf("embedded fingerprints of %s: %v", workload, err))
	}
	return out
}

func fingerprint(modelled string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(modelled)))[:16]
}

// check reports whether r passed the output check, printing the
// modelled numbers beside the fingerprint on the first run of each
// architecture and on every failure.
func (c *checker) check(r runResult) bool {
	fails := r.failures
	want, source := c.recorded[r.arch], "recorded"
	if c.recorded == nil {
		want, source = c.first[r.arch], "first pass"
	}
	if want != "" && r.modelled != want {
		fails = append(fails, fmt.Sprintf("fingerprint %s differs from the %s one %s (%s)",
			fingerprint(r.modelled), source, fingerprint(want), want))
	}
	if _, seen := c.first[r.arch]; !seen || len(fails) > 0 {
		fmt.Fprintf(c.w, "fingerprint %s/%s seed=%d %s: %s\n", c.workload, r.arch, c.seed, fingerprint(r.modelled), r.modelled)
	}
	if _, seen := c.first[r.arch]; !seen {
		c.first[r.arch] = r.modelled
	}
	for _, f := range fails {
		fmt.Fprintf(c.w, "FAIL %s/%s seed=%d: %s\n", c.workload, r.arch, c.seed, f)
	}
	return len(fails) == 0
}

// record runs one untraced pass per seed in lo-hi and stores the
// modelled outputs as that seed's recorded fingerprints.
func record(workload, seeds, dir string, w io.Writer) error {
	wl := workloadByName(workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	loS, hiS, _ := strings.Cut(seeds, "-")
	lo, err1 := strconv.ParseInt(loS, 10, 64)
	hi, err2 := strconv.ParseInt(hiS, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("--record-seeds wants a range lo-hi, got %q", seeds)
	}
	path := filepath.Join(dir, wl.name+".json")
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for seed := lo; seed <= hi; seed++ {
		got := map[string]string{}
		for _, r := range wl.pass(seed, passOpts{pool: runtime.NumCPU()}) {
			if len(r.failures) > 0 {
				return fmt.Errorf("seed %d %s: %s", seed, r.arch, strings.Join(r.failures, "; "))
			}
			got[r.arch] = r.modelled
		}
		all[strconv.FormatInt(seed, 10)] = got
		fmt.Fprintf(w, "recorded %s seed %d\n", wl.name, seed)
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// manifest is BENCHMARK.json, generated from the definitions above so
// each workload's reason and each metric's bound live in one place.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the host time one benchmark run measures for.
const runSeconds = 30

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "simbench/run.sh"},
		Paths:      []string{"simbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{wl.name, wl.why})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	return append(b, '\n'), err
}

func writeManifest(path string) error {
	b, err := manifestJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
