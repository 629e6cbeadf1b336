// Command perfbench is the repository's end-to-end benchmark. It runs
// one of two workloads against the real daemon, funnel, monitor and
// workload packages, checks every output against a reference, and
// prints one JSON result as its last line of standard output:
//
//	perfbench --workload live-stream --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off over --seconds and taken from the run's least
// disturbed stretch (see each workload). With --trace 1 the same work
// runs both untraced and with spans recorded around every call the
// benchmark makes into a layer; the result carries the per-layer
// metrics derived from those spans and counters, and the tracing
// overhead of the one against the other. Spans are written to
// <out>/spans-<workload>-<seed>.jsonl when the run ends.
//
// The process exits 0 only when every correctness check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd lists what a user of FUNNEL sees. Every workload reports
// every one of them; each workload's unit of work gives the latency and
// throughput figures their meaning (see workloadDef.Unit).
var endToEnd = []metricSpec{
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"precision", "ratio", "higher", 0.1},
	{"recall", "ratio", "higher", 0.1},
	{"heap_live_mib", "MiB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's figures, one group per layer. A
// layer a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"sst.windows_per_kpi", "count", "lower", 0},
	{"sst.ns_per_window", "ns", "lower", 0},
	{"sst.sweep_ms_per_kpi", "ms", "lower", 0},
	{"obs.sst_window_p50_us", "us", "lower", 0},
	{"read.ns_per_bin", "ns", "lower", 0},
	{"read.bins_per_kpi", "count", "lower", 0},
	{"read.used_share", "ratio", "higher", 0},
	{"store.append_ns_per_meas", "ns", "lower", 0},
	{"store.compression_ratio", "ratio", "higher", 0},
	{"store.chunks_sealed", "count", "higher", 0},
	{"wire.decode_ns_per_meas", "ns", "lower", 0},
	{"wire.bytes_per_meas", "B", "lower", 0},
	{"loadgen.encode_ns_per_meas", "ns", "lower", 0},
	{"wal.sync_ms_p99", "ms", "lower", 0},
	{"wal.compact_ms", "ms", "lower", 0},
	{"wal.bytes_per_meas", "B", "lower", 0},
	{"wal.compactions", "count", "lower", 0},
	{"stream.advances", "count", "lower", 0},
	{"stream.cache_hit_ratio", "ratio", "higher", 0},
	{"stream.sheds", "count", "lower", 0},
	{"gate.us_per_kpi", "us", "lower", 0},
	{"gate.runs_declared", "count", "higher", 0},
	{"gate.runs_discarded", "count", "lower", 0},
	{"did.us_per_kpi", "us", "lower", 0},
	{"did.runs", "count", "lower", 0},
	{"did.historical_share", "ratio", "lower", 0},
	{"impact.us_per_change", "us", "lower", 0},
	{"impact.kpis_per_change", "count", "lower", 0},
	{"render.us_per_change", "us", "lower", 0},
	{"assess.self_ms", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"oracle.unobserved_diff", "count", "lower", 0},
	{"admin.register_ms_p99", "ms", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"obs.b2v_p99_ms", "ms", "lower", 0},
	{"gc.pause_ms_total", "ms", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
	{"alloc_kb_per_op", "KiB", "lower", 0},
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists.
	Why string
	// Unit says what one operation is, which fixes the meaning of the
	// generic latency and throughput metrics on this workload.
	Unit string
	Run  func(cfg runConfig) (*result, error)
}

var workloads = []workloadDef{
	{
		Name: "live-stream",
		Why:  "Open-loop TCP ingest into the streaming WAL daemon with staggered changes: ingest, feed, incremental SST, gate, DiD and report, with only the last windows and DiD on the verdict's path",
		Unit: "one change verdict; latency is bin-to-verdict from the due time of the bin the verdict waits for",
		Run:  runLiveStream,
	},
	{
		Name: "batch-assess",
		Why:  "Closed-loop Assess after ingest, on the deployed 7-day history: the full SST sweep plus chunk decode in RangeInto, with ingest idle",
		Unit: "one Assess call (one change); throughput is changes per second",
		Run:  runBatchAssess,
	},
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	// Dir is the benchmark's scratch directory inside the checkout
	// (WAL directories, span dumps).
	Dir string
}

// setups is how many times an untraced run repeats its set-up; setup_s
// is the median. A traced run sets up once.
func (c runConfig) setups(untraced int) int {
	if c.Trace {
		return 1
	}
	return untraced
}

// result accumulates one run's outcome.
type result struct {
	Attempted, Failed int
	// problems lists every failed check; the run is correct only when
	// it is empty.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	notes    []string
	tr       *tracer
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed check unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note adds a human-readable line to the report.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "measured duration of the run in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "scratch directory for WAL data and span dumps")
	)
	flag.Parse()
	// One P: on a small shared host, whether a neighbour held the second
	// CPU decided whether a run measured one CPU or two, and split every
	// latency into two modes far apart. On one P every run measures one.
	runtime.GOMAXPROCS(1)
	os.Exit(run(*name, *seed, *seconds, *trace, *out))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func run(name string, seed int64, seconds float64, trace int, out string) int {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].Name == name {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", name, workloadNames())
		return 2
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		Seed:    seed,
		Seconds: time.Duration(seconds * float64(time.Second)),
		Trace:   trace == 1,
		Dir:     out,
	}
	meta := runMeta(def, cfg)
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaLine)

	res, err := def.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if cfg.Trace {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := res.tr.dump(path, meta); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span dump:", err)
			return 1
		}
		res.note("spans written to %s", path)
	}
	return emit(os.Stdout, res, cfg.Trace)
}

// runMeta is the run's provenance, printed before the result and
// written at the head of the span dump.
func runMeta(def *workloadDef, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   def.Name,
		"why":        def.Why,
		"unit":       def.Unit,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds.Seconds(),
		"trace":      cfg.Trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
}

// cpuModel reads the processor name the kernel reports ("unknown" when
// unavailable).
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

// emit prints the human-readable report and, as the last line, the
// JSON result. It returns the process exit code.
func emit(w *os.File, res *result, trace bool) int {
	specs, vals := endToEnd, res.e2e
	if trace {
		specs, vals = perLayer, res.layer
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	metrics := map[string]any{}
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.problems = append(res.problems, fmt.Sprintf("metric %s missing or not finite", s.Name))
			v = 0
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", s.Name, v, s.Unit)
		metrics[s.Name] = map[string]any{"value": v, "unit": s.Unit}
	}
	sort.Strings(res.problems)
	for _, p := range res.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	correct := len(res.problems) == 0 && res.Failed == 0
	fmt.Fprintf(w, "fail_frac %d/%d = %.6g\n", res.Failed, res.Attempted, ratio(float64(res.Failed), float64(res.Attempted)))
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !correct || res.Attempted < 1 {
		return 1
	}
	return 0
}
