// Command perfbench is the repository benchmark. It drives the public
// vnpu API (System, Cluster) and the fleet replay model from one process,
// runs one named workload, checks the workload's outputs, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With -trace 1 they are the per-layer metrics, read from a
// traced run, and a Chrome trace (Perfetto-loadable) is written under
// -out. Layers are measured from outside: the benchmark times its own
// calls into each layer and reads the counters the program exports.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sim-stream --seed 1 --seconds 20 --trace 0
//
// A failed output check prints the result with "correct": false and
// exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/vnpu-sim/vnpu/internal/benchjson"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with tracing off
// and a regression is judged on. Each workload defines them on its own
// unit of work; see README.md. Tail latencies, goodput and simulation
// speed are printed in the report above the result line (see
// outcome.report) but not listed here: on a small shared host they
// follow the host more than the program.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"sojourn_p50_ms", "ms"},
	{"completed_frac", "frac"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics every traced run reports. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"npu.run_ms_per_iter.it1", "ms"},
	{"npu.run_ms_per_iter.it8", "ms"},
	{"npu.iter_scaling", "ratio"},
	{"npu.mcycles_per_s", "Mcycles/s"},
	{"core.create_ms", "ms"},
	{"workload.compile_ms", "ms"},
	{"place.cache_hit_rate", "frac"},
	{"place.decision_us", "us"},
	{"place.map_us", "us"},
	{"place.map_s", "s"},
	{"place.async_maps", "count"},
	{"place.neg_hits", "count"},
	{"place.prewarm_hit_rate", "frac"},
	{"sched.hits_first_frac", "frac"},
	{"sched.map_parked", "count"},
	{"cluster.exec_overlap_avg", "vnpus"},
	{"cluster.chip_busy_frac", "frac"},
	{"bench.submit_us", "us"},
	{"gen.late_ms", "ms"},
	{"session.warm_hit_rate", "frac"},
	{"session.batched_frac", "frac"},
	{"session.cold_creates", "count"},
	{"session.warm_acquire_us", "us"},
	{"session.cold_acquire_us", "us"},
	{"session.evicted", "count"},
	{"timing.memo_hit_rate", "frac"},
	{"timing.memo_misses", "count"},
	{"attr.queue_wait_share", "frac"},
	{"attr.map_park_share", "frac"},
	{"attr.batching_share", "frac"},
	{"attr.execution_share", "frac"},
	{"fleet.replay_s", "s"},
	{"fleet.steals", "count"},
	{"obs.trace_overhead_frac", "frac"},
	{"obs.trace_dropped", "count"},
}

// runConfig is what one workload run gets from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// tr records spans around the benchmark's layer calls; nil when the
	// run is untraced.
	tr *tracer
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int
	// e2e holds the end-to-end metrics, layer the per-layer metrics a
	// traced run measured (absent ones read 0).
	e2e   map[string]float64
	layer map[string]float64
	// report holds the figures printed above the result line and kept in
	// the result file: every end-to-end figure the workload has, gated or
	// not, each with its unit and, for timings, its sample count.
	report map[string]string
	// cost is the host time one unit of work took (lower is better),
	// the base of the trace overhead.
	cost float64
	// checkErrs lists failed output checks; any entry fails the run.
	checkErrs []string
	// fails buckets failed jobs by normalized error text.
	fails failures
	// lifecycle holds the program's own trace events of a traced run,
	// exported next to the benchmark's spans.
	lifecycle []lifecycleTrack
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, report: map[string]string{}, fails: failures{}}
}

// put adds one figure with its unit to the report.
func (o *outcome) put(name string, v float64, unit string) {
	o.report[name] = fmt.Sprintf("%.6g %s", v, unit)
}

// putLatencies adds the figures every workload reports: the sojourn and
// time-to-start distributions, their p99s and the failed fraction.
func (o *outcome) putLatencies(sojourn, start []float64) {
	o.putDist("sojourn", sojourn, "ms")
	o.putDist("time_to_start", start, "ms")
	o.put("sojourn_p99_ms", p99(sojourn), "ms")
	o.put("start_p99_ms", p99(start), "ms")
	o.put("failed_frac", ratio(float64(o.failed), float64(o.attempted)), "frac")
}

// setSetup sets setup_s to the median of the set-up times (seconds) and
// reports their distribution.
func (o *outcome) setSetup(times []float64) {
	o.e2e["setup_s"] = median(times)
	o.putDist("setup", times, "s")
}

// putDist adds a timing distribution to the report: its median and the
// highest percentile with at least ten samples beyond it.
func (o *outcome) putDist(name string, xs []float64, unit string) {
	o.report[name] = summary(xs, unit)
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sim-stream":  simStream,
	"serve-churn": serveChurn,
	"serve-warm":  serveWarm,
	"replay":      replay,
}

func main() {
	name := flag.String("workload", "", "workload to run: sim-stream, serve-churn, serve-warm or replay")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: report per-layer metrics and write a Chrome trace")
	outDir := flag.String("out", ".bench_build", "directory for the result file and the trace")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	h := hostInfo()
	fmt.Printf("perfbench %s: seed %d, %ds, trace %d; host %s, nproc %d, GOMAXPROCS %d, %s\n",
		*name, *seed, *seconds, *trace, h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion)

	var out *outcome
	var err error
	var tracePath string
	if *trace == 0 {
		out, err = run(cfg)
	} else {
		out, tracePath, err = tracedRun(*name, run, cfg, *outDir)
	}
	if err != nil {
		fatal(err)
	}

	metrics := map[string]metric{}
	defs, values := endToEnd, out.e2e
	if *trace == 1 {
		defs, values = perLayer, out.layer
	}
	for _, d := range defs {
		metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	printReport(*name, out, defs, metrics, tracePath)

	resPath := filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := benchjson.Write(resPath, map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": h, "attempted": out.attempted, "failed": out.failed,
		"failures": out.fails, "checks_failed": out.checkErrs,
		"metrics": metrics, "report": out.report,
	}); err != nil {
		fatal(err)
	}
	fmt.Printf("result file: %s\n", resPath)

	correct := len(out.checkErrs) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracedRun measures the workload twice: untraced, for the baseline of
// the trace overhead, then traced, for the per-layer metrics and the
// trace file.
func tracedRun(name string, run workloadFunc, cfg runConfig, outDir string) (*outcome, string, error) {
	base, err := run(cfg)
	if err != nil {
		return nil, "", err
	}
	cfg.tr = newTracer()
	out, err := run(cfg)
	if err != nil {
		return nil, "", err
	}
	out.attempted += base.attempted
	out.failed += base.failed
	out.checkErrs = append(base.checkErrs, out.checkErrs...)
	for k, n := range base.fails {
		out.fails[k] += n
	}
	if base.cost > 0 {
		out.layer["obs.trace_overhead_frac"] = out.cost/base.cost - 1
	}
	// The program's recorder drops (set by the workload) plus the
	// benchmark's own.
	out.layer["obs.trace_dropped"] += float64(cfg.tr.dropped)
	out.report["trace_spans"] = fmt.Sprintf("%d kept (jobs sampled 1 in %d), %d dropped", len(cfg.tr.spans), cfg.tr.every, cfg.tr.dropped)
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
	if err := cfg.tr.writeChrome(path, name, out.lifecycle); err != nil {
		return nil, "", err
	}
	return out, path, nil
}

func printReport(name string, out *outcome, defs []metricDef, metrics map[string]metric, tracePath string) {
	keys := make([]string, 0, len(out.report))
	for k := range out.report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %s\n", k, out.report[k])
	}
	fmt.Printf("%s: %d attempted, %d failed\n", name, out.attempted, out.failed)
	for _, k := range out.fails.keys() {
		fmt.Printf("  failure x%d: %s\n", out.fails[k], k)
	}
	for _, e := range out.checkErrs {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}
	for _, d := range defs {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	if tracePath != "" {
		fmt.Printf("trace file: %s\n", tracePath)
	}
}

// failures counts failed jobs per error text, with digit runs folded so
// that errors naming different nodes or chips share a bucket.
type failures map[string]int

func (f failures) add(err error) {
	var b strings.Builder
	digits := false
	for _, r := range err.Error() {
		if r >= '0' && r <= '9' {
			if !digits {
				b.WriteByte('N')
			}
			digits = true
			continue
		}
		digits = false
		b.WriteRune(r)
	}
	f[b.String()]++
}

func (f failures) keys() []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// host stamps a result with the machine it ran on; benchjson adds the
// revision the binary was built from.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostInfo() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the processor's model name from /proc/cpuinfo and
// names only the architecture where there is none.
func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
