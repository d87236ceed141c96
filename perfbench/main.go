// Command perfbench is the repository's same-host benchmark. It runs
// one workload per process and prints, as the last line of standard
// output, one JSON object with the run's correctness verdict, its
// operation counts and its metrics:
//
//	go build -o .bench_build/perfbench ./perfbench
//	.bench_build/perfbench --workload study --seed 1 --seconds 30 --trace 0
//
// Workloads are study (a scaled two-device reproduction), static (the
// injection-free estimators over every suite runner) and serve (the
// campaign daemon under a closed loop of HTTP clients). --trace 0
// reports the end-to-end metrics of an untraced run; --trace 1 runs the
// workload untraced and then traced, records spans around every call
// into a module, writes them under .bench_build/trace/, and reports the
// per-layer metrics. perfbench/README.md describes each metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is the seed a performance claim must also hold on
// without having been used while the change was written.
const heldOutSeed = 7919

// setupProbes is how many fresh processes measure set-up time; the
// median is reported.
const setupProbes = 9

// buildDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const buildDir = ".bench_build"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's numbers by name; encoding/json writes map
// keys in sorted order.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is what one pass over a workload's fixed work produced.
type outcome struct {
	wall      time.Duration
	attempted int
	failed    int
	digest    string
	problems  []string // failed output checks
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// fail counts a failed operation and records why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

func main() {
	var opts options
	var probe bool
	flag.StringVar(&opts.workload, "workload", "", "workload: study, static or serve")
	flag.Uint64Var(&opts.seed, "seed", 1, "input seed")
	flag.IntVar(&opts.seconds, "seconds", 30, "nominal measured seconds (recorded; each workload's fixed work is sized to about this)")
	traceFlag := flag.Int("trace", 0, "1: run traced and report per-layer metrics")
	flag.BoolVar(&probe, "probe-setup", false, "internal: perform only the workload's set-up, then exit")
	flag.Parse()
	opts.trace = *traceFlag == 1
	if _, ok := workloads[opts.workload]; !ok || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		os.Exit(2)
	}
	w := workloads[opts.workload]
	if probe {
		if err := w.setup(opts.seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	res, err := run(opts, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// workload binds a workload's set-up (what the probes time) to its
// untraced pass and its traced walk.
type workload struct {
	setup func(seed uint64) error
	// fixed performs the workload's fixed work untraced.
	fixed func(seed uint64, dir string) outcome
	// walk repeats the fixed work traced and returns the per-layer
	// metrics it can attribute. probe asks for the smallest walk that
	// still reaches every layer the workload reaches.
	walk func(tr *tracer, seed uint64, dir string, probe bool) (metrics, outcome)
	// scale describes the fixed work for the provenance line.
	scale string
}

var workloads = map[string]workload{
	"study":  {setup: setupStudy, fixed: fixedStudy, walk: walkStudy, scale: studyScale},
	"static": {setup: setupStatic, fixed: fixedStatic, walk: walkStatic, scale: staticScale},
	"serve":  {setup: setupServe, fixed: fixedServe, walk: walkServe, scale: serveScale},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(opts options, w workload) (*result, error) {
	dir, err := os.MkdirTemp(mustMkdir(buildDir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setup float64
	if !opts.trace {
		if setup, err = probeSetup(opts); err != nil {
			return nil, err
		}
	}
	base := w.fixed(opts.seed, dir)
	res := &result{Attempted: base.attempted, Failed: base.failed, Metrics: metrics{}}
	out := base
	if !opts.trace {
		res.Metrics.set("setup_s", "s", setup)
		res.Metrics.set("wall_s", "s", base.wall.Seconds())
		res.Metrics.set("peak_rss_mb", "MB", peakRSSMB())
	} else {
		traced, err := runTraced(opts, w, dir, base)
		if err != nil {
			return nil, err
		}
		res.Metrics = traced.m
		out.problems = append(out.problems, traced.problems...)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
	}
	names, err := declaredMetrics(opts.trace)
	if err != nil {
		return nil, err
	}
	kept := metrics{}
	for _, name := range names {
		if v, ok := res.Metrics[name]; ok {
			kept[name] = v
		} else {
			out.problem("metric %s declared in BENCHMARK.json was not measured", name)
		}
	}
	res.Metrics = kept
	res.Correct = len(out.problems) == 0 && res.Failed == 0
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	prov := provenance(opts, w)
	prov["result_digest"] = base.digest
	prov["error_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	line, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

type tracedResult struct {
	m         metrics
	problems  []string
	attempted int
	failed    int
}

// runTraced repeats the workload traced, then walks the other two
// workloads at probe size so every layer is measured, and reports the
// per-layer metrics. A layer's metrics come from the workload's own
// walk whenever that walk reaches the layer.
func runTraced(opts options, w workload, dir string, base outcome) (*tracedResult, error) {
	tr := newTracer()
	m, own := w.walk(tr, opts.seed, dir, false)
	ownSpans := tr.mark()
	if m == nil {
		m = metrics{}
	}
	out := &tracedResult{m: m, problems: own.problems, attempted: own.attempted, failed: own.failed}
	if own.digest != "" && own.digest != base.digest {
		out.problems = append(out.problems, fmt.Sprintf("traced walk digest %s differs from the untraced run's %s", own.digest, base.digest))
	}
	for _, name := range workloadNames() {
		if name == opts.workload {
			continue
		}
		pm, po := workloads[name].walk(tr, opts.seed, dir, true)
		for k, v := range pm {
			if _, ok := out.m[k]; !ok {
				out.m[k] = v
			}
		}
		out.problems = append(out.problems, po.problems...)
		out.attempted += po.attempted
		out.failed += po.failed
	}
	if err := perFault(tr, out.m); err != nil {
		return nil, err
	}
	// The walk repeats the untraced pass's fixed work with spans on, so
	// the ratio of their times is the tracing overhead.
	out.m.set("trace.overhead_ratio", "ratio", own.wall.Seconds()/base.wall.Seconds())

	spans := tr.since(0)
	var walkSpans []span
	for _, s := range spans {
		if s.ID <= ownSpans {
			walkSpans = append(walkSpans, s)
		}
	}
	printLayerTable(stderr, opts.workload+" walk", newSpanStats(walkSpans).layerSelf())
	tdir := mustMkdir(filepath.Join(buildDir, "trace"))
	path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d-%d.jsonl", opts.workload, opts.seed, os.Getpid()))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "wrote %d spans to %s\n", len(spans), path)
	return out, nil
}

// declaredMetrics lists the metric names BENCHMARK.json declares for
// the mode: the end-to-end ones untraced, the per-layer ones traced.
func declaredMetrics(trace bool) ([]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type named struct {
		Name string `json:"name"`
	}
	var b struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := b.EndToEnd
	if trace {
		list = b.PerLayer
	}
	names := make([]string, len(list))
	for i, n := range list {
		names[i] = n.Name
	}
	return names, nil
}

// probeSetup times setupProbes fresh processes that each perform only
// the workload's set-up, and returns the median in seconds.
func probeSetup(opts options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--workload", opts.workload,
			"--seed", fmt.Sprint(opts.seed), "--probe-setup")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	med, _ := percentile(ts, 0.5)
	return med, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}

// provenance describes the host, toolchain, code and inputs of a run.
func provenance(opts options, w workload) map[string]any {
	return map[string]any{
		"workload":      opts.workload,
		"seed":          opts.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       opts.seconds,
		"trace":         opts.trace,
		"scale":         w.scale,
		"cache_bytes":   serveCacheBytes,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_digest": sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out revision when the benchmark runs at the
// root of a git work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every Go file outside dot-directories,
// in path order: the code identity when there is no git metadata.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || (path != "go.mod" && !strings.HasSuffix(path, ".go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest hashes the parts of a workload's output that must repeat
// exactly for one commit and seed.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stderr receives progress and diagnostics; tests silence it.
var stderr io.Writer = os.Stderr
