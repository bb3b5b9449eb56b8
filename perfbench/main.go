// Command perfbench is the repository's benchmark: one command that runs a
// workload from a seed, checks its outputs, and prints every metric by name
// and unit. With -trace 0 it reports the end-to-end metrics of an untraced
// run; with -trace 1 it times the calls into each layer and reports the
// per-layer metrics. See README.md for the workloads and the metric map.
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// validationSeed is held out: changes are tuned on other seeds and
// confirmed on this one.
const validationSeed = 7919

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"analyze_cold_ms_per_program", "ms"},
	{"analyze_warm_ms_per_program", "ms"},
	{"train_s", "s"},
	{"miss_pct", "%"},
	{"serve_vectors_p50_ms", "ms"},
	{"serve_vectors_p99_ms", "ms"},
	{"serve_source_p50_ms", "ms"},
	{"serve_source_p99_ms", "ms"},
	{"ok_pct", "%"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"minic.parse.ms", "ms"}, {"minic.parse.calls", "count"}, {"minic.parse.kb", "KiB"},
		{"codegen.compile.ms", "ms"}, {"codegen.compile.calls", "count"}, {"codegen.ir_insns", "count"},
		{"artifact.key.ms", "ms"}, {"artifact.load.ms", "ms"}, {"artifact.store.ms", "ms"},
		{"artifact.hits", "count"}, {"artifact.misses", "count"}, {"artifact.kb_written", "KiB"},
		{"interp.run.ms", "ms"}, {"interp.runs", "count"}, {"interp.insns", "count"}, {"interp.minsns_per_s", "Minsn/s"},
		{"features.collect.ms", "ms"}, {"features.extract.ms", "ms"}, {"features.sites", "count"},
		{"core.train.ms", "ms"}, {"neural.epochs", "count"}, {"neural.examples", "count"}, {"neural.ms_per_epoch", "ms"},
		{"core.predict.ms", "ms"}, {"core.predict.vectors", "count"},
	}
	for _, st := range serveStages {
		defs = append(defs,
			metricDef{"serve." + st + ".p50_us", "us"},
			metricDef{"serve." + st + ".p99_us", "us"},
			metricDef{"serve." + st + ".total_ms", "ms"},
			metricDef{"serve." + st + ".n", "count"})
	}
	return append(defs,
		metricDef{"serve.lru_hit_ratio", "ratio"}, metricDef{"serve.shed", "count"},
		metricDef{"serve.degraded", "count"}, metricDef{"serve.timeouts", "count"},
		metricDef{"serve.capacity_rps", "1/s"}, metricDef{"serve.capacity_jobs_per_batch", "jobs"},
		metricDef{"cluster.hop.p50_us", "us"}, metricDef{"cluster.hop.p99_us", "us"},
		metricDef{"loadgen.late.p99_ms", "ms"}, metricDef{"loadgen.sent", "count"},
		metricDef{"unaccounted_pct", "%"}, metricDef{"trace_overhead_pct", "%"},
	)
}

// workload is one benchmark workload. setup prepares everything the
// measurement needs and is timed; measure runs for the run's duration and
// reports metrics through the bench.
type workload interface {
	setup(b *bench, l *layers) error
	measure(b *bench) error
}

var workloads = map[string]func() workload{
	"study": func() workload { return &study{} },
	"gen":   func() workload { return &gen{} },
}

// bench is one run's context and its results.
type bench struct {
	seed     int64
	seconds  time.Duration
	l        *layers // nil in the untraced run
	scratch  string  // private scratch directory, removed at exit
	binDir   string
	metrics  map[string]float64
	attempt  int64
	failed   int64
	problems []string
	// setupTrain is the set-up model's training time in each set-up
	// repetition, which gen reports.
	setupTrain []float64
}

// check counts one checked operation, and a failure when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempt++
	if !ok {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: study or gen")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	root := fs.String("root", ".", "repository root")
	build := fs.String("build", ".bench_build", "build and scratch directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	newW, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have study, gen)", *name)
	}
	scratch, err := os.MkdirTemp(*build, "run-"+*name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		scratch: scratch,
		binDir:  filepath.Join(*build, "bin"),
		metrics: map[string]float64{},
	}
	if *trace == 1 {
		b.l = newLayers()
	}
	meta := runMeta(*root, *name, *seed, *trace)
	mj, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "perfbench meta %s\n", mj)

	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		w = newW()
		var l *layers
		if i == setupRepeats-1 {
			l = b.l // only the set-up that is used is traced
		}
		t := time.Now()
		err := w.setup(b, l)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	if err := w.measure(b); err != nil {
		return err
	}
	b.set("setup_s", median(setups))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss)
	if b.attempt > 0 {
		b.set("ok_pct", 100*float64(b.attempt-b.failed)/float64(b.attempt))
	}
	defs := endToEnd
	if b.l != nil {
		b.emitLayers()
		defs = perLayer()
	}
	return printResult(stdout, b, defs)
}

// printResult writes the final JSON line, after checking that every
// declared metric was measured and is a finite number.
func printResult(w io.Writer, b *bench, defs []metricDef) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: b.attempt, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out.Correct = b.failed == 0 && b.attempt > 0
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// emitLayers turns the traced run's accumulators into per-layer metrics.
func (b *bench) emitLayers() {
	l := b.l
	for _, n := range []string{"minic.parse", "codegen.compile", "artifact.key", "artifact.load",
		"artifact.store", "interp.run", "features.collect", "features.extract", "core.train", "core.predict"} {
		b.set(n+".ms", l.ms(n))
	}
	for _, n := range []string{"minic.parse.calls", "codegen.compile.calls", "codegen.ir_insns",
		"artifact.hits", "artifact.misses", "interp.runs", "interp.insns", "features.sites",
		"neural.epochs", "neural.examples", "core.predict.vectors", "loadgen.sent"} {
		b.set(n, l.n(n))
	}
	b.set("minic.parse.kb", l.n("minic.parse.bytes")/1024)
	b.set("artifact.kb_written", l.n("artifact.bytes_written")/1024)
	if ms := l.ms("interp.run"); ms > 0 {
		b.set("interp.minsns_per_s", l.n("interp.insns")/ms/1e3)
	} else {
		b.set("interp.minsns_per_s", 0)
	}
	if ep := l.n("neural.epochs"); ep > 0 {
		b.set("neural.ms_per_epoch", l.ms("core.train")/ep)
	} else {
		b.set("neural.ms_per_epoch", 0)
	}
	for _, st := range serveStages {
		xs := l.values("serve." + st)
		b.set("serve."+st+".p50_us", tailOrUnsupported(xs, 0.5))
		b.set("serve."+st+".p99_us", tailOrUnsupported(xs, 0.99))
		b.set("serve."+st+".total_ms", sum(xs)/1e3)
		b.set("serve."+st+".n", float64(len(xs)))
	}
	for _, n := range []string{"serve.shed", "serve.degraded", "serve.timeouts"} {
		b.set(n, l.n(n))
	}
	if lookups := l.n("serve.lru_hits") + l.n("serve.lru_misses"); lookups > 0 {
		b.set("serve.lru_hit_ratio", l.n("serve.lru_hits")/lookups)
	} else {
		b.set("serve.lru_hit_ratio", 0)
	}
	if batches := l.n("serve.capacity_batches"); batches > 0 {
		b.set("serve.capacity_jobs_per_batch", l.n("serve.capacity_batched_jobs")/batches)
	} else {
		b.set("serve.capacity_jobs_per_batch", 0)
	}
	// Only gen's cluster stage has a router hop and an open-loop generator;
	// it sets these itself.
	for _, n := range []string{"cluster.hop.p50_us", "cluster.hop.p99_us", "loadgen.late.p99_ms"} {
		if _, ok := b.metrics[n]; !ok {
			b.set(n, 0)
		}
	}
	b.set("unaccounted_pct", l.unaccountedPct())
}

// tailOrUnsupported is a percentile of a per-layer distribution, or -1
// when the sample is too small to support it (see percentile).
func tailOrUnsupported(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		return -1
	}
	return v
}

// runMeta records where and how a run was made.
func runMeta(root, name string, seed int64, trace int) map[string]any {
	commit := "none"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":        name,
		"seed":            seed,
		"validation_seed": validationSeed,
		"trace":           trace,
		"commit":          commit,
		"source_digest":   sourceDigest(root),
		"go":              runtime.Version(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"cpu":             cpuModel(),
	}
}

// sourceDigest hashes the module's Go sources and go.mod, identifying the
// code measured when the checkout carries no commit.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is this process's peak resident set in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
