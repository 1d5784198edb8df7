// Command perfbench is the repository's end-to-end benchmark. It generates
// seeded inputs, drives one workload through the public packages, checks
// the outputs, and prints the metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload train-arxiv --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//	train-arxiv       train.Trainer to a validation-accuracy target
//	infer-products    infer.Sampled over the products test split
//	serve-zipf-churn  fleet.Fleet under open-loop Zipf load and edge churn
//	train-dist        ddp.Trainer over a TCP dist.Cluster to the same target
//
// With --trace 0 the last line of standard output is a JSON object whose
// metrics are the end-to-end ones, measured with tracing off. Every
// workload reports each of them, with this meaning:
//
//	metric       train-arxiv, train-dist     infer-products     serve-zipf-churn
//	setup_s      median set-up time (dataset, set-up training, cluster/server start, warm-up)
//	peak_rss_mb  VmHWM of the benchmark process
//	acc          train.val_acc               infer.test_acc     serve.acc
//	rate_per_s   train nodes / train.epoch_s infer.nodes_per_s  serve.capacity_rps
//	time_s       train.time_to_acc_s         one inference pass serve.high.p50_ms / 1000
//
// The lines above the JSON print every metric under its full name
// (train.epoch_s, serve.low.p50_ms, ...) with its unit. Timings are given
// as the median plus the highest percentile that has at least ten samples
// beyond it, with the sample count. serve.max_rps, the rate-ladder
// capacity at a p99 bound, is printed there but is not an end-to-end
// metric: near capacity a half-second step on two shared cores passes or
// fails by chance, and its value moves by a fifth between runs of one
// seed. serve.capacity_rps, the closed-loop throughput, moves less.
//
// With --trace 1 the run measures the same untraced phase, then repeats the
// work with a span around every call into a layer's public functions. The
// JSON then carries the per-layer metrics; a metric of a layer that the
// workload does not exercise reads 0. The spans are written as a Chrome
// trace under the -out directory, and trace.overhead_frac is the traced
// phase's slowdown over the untraced one.
//
// Claims of a gain are verified on the held-out seed 9001, which no tuning
// of this benchmark used.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer are the metric names and units, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"acc", "fraction"},
	{"rate_per_s", "1/s"},
	{"time_s", "s"},
}

var perLayer = []metricDef{
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"train.optim_ms", "ms"},
	{"train.step_ms", "ms"},
	{"slicing.decode_ms", "ms"},
	{"sampler.sample_ms", "ms"},
	{"sampler.rows_per_batch", "count"},
	{"sampler.edges_per_batch", "count"},
	{"store.gather_ms", "ms"},
	{"store.bytes_per_batch", "bytes"},
	{"prep.wait_ms", "ms"},
	{"prep.busy_share", "fraction"},
	{"prep.allocs_per_batch", "count"},
	{"infer.eval_s", "s"},
	{"train.epochs_to_acc", "count"},
	{"ddp.sync_frac", "fraction"},
	{"ddp.sync_wait_ms", "ms"},
	{"ddp.compute_ms", "ms"},
	{"ddp.prep_wait_ms", "ms"},
	{"transport.calls_per_epoch", "count"},
	{"transport.mb_per_epoch", "MB"},
	{"transport.retries", "count"},
	{"store.remote_rows_per_epoch", "count"},
	{"store.remote_hit_rate", "fraction"},
	{"graph.adj_mb_per_epoch", "MB"},
	{"serve.occupancy_mean", "count"},
	{"serve.queue_depth_p99", "count"},
	{"serve.sample_ms", "ms"},
	{"serve.gather_ms", "ms"},
	{"serve.forward_ms", "ms"},
	{"fleet.route_imbalance", "ratio"},
	{"fleet.shed_deadline", "count"},
	{"fleet.shed_priority", "count"},
	{"fleet.shed_capacity", "count"},
	{"fleet.result_hit_rate", "fraction"},
	{"fleet.result_invalidated", "count"},
	{"fleet.skew_max", "count"},
	{"cache.feature_hit_rate", "fraction"},
	{"embcache.hit_rate", "fraction"},
	{"graph.update_ms", "ms"},
	{"graph.updates_applied", "count"},
	{"graph.compactions", "count"},
	{"gen.late_ms", "ms"},
	{"gc.pause_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

type metricDef struct{ Name, Unit string }

// env is what every workload receives.
type env struct {
	Seed    uint64
	Seconds time.Duration // how long the measured phase runs
	Trace   bool
	Out     string // directory for trace files
}

// report is what a workload measured.
type report struct {
	Attempted, Failed int64
	E2E               map[string]float64 // end-to-end metrics, by the names in BENCHMARK.json
	Layer             map[string]float64 // per-layer metrics (traced runs)
	lines             []string           // human-readable metrics, in order
	checks            []check
}

type check struct {
	Name   string
	OK     bool
	Detail string
}

func newReport() *report {
	return &report{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// metric prints a full-named metric.
func (r *report) metric(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("%-28s %14.6g %s", name, v, unit))
}

// timing prints a full-named timing sample (values in unit) as median,
// tail percentile and count.
func (r *report) timing(name string, xs []float64, unit string) {
	t := summarize(xs)
	line := fmt.Sprintf("%-28s %14.6g %s median", name, t.Median, unit)
	if t.TailP > 0 {
		line += fmt.Sprintf(", p%s %.6g", pctName(t.TailP), t.Tail)
	}
	r.lines = append(r.lines, line+fmt.Sprintf(" (n=%d)", t.N))
}

// layerLines prints the named per-layer metrics.
func (r *report) layerLines(names ...string) {
	for _, n := range names {
		r.metric(n, r.Layer[n], unitOf(n))
	}
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// check records an output check; a failed check fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func pctName(p float64) string {
	return strings.TrimRight(strings.TrimRight(strconv.FormatFloat(p*100, 'f', 2, 64), "0"), ".")
}

var workloads = map[string]func(env) (*report, error){
	"train-arxiv":      runTrainArxiv,
	"infer-products":   runInferProducts,
	"serve-zipf-churn": runServeZipfChurn,
	"train-dist":       runTrainDist,
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	secs := flag.Int("seconds", 20, "length of the measured phase")
	traceOn := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for trace files")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of train-arxiv, infer-products, serve-zipf-churn, train-dist), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	// All load comes from this one process, on at most two cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	e := env{Seed: *seed, Seconds: time.Duration(*secs) * time.Second, Trace: *traceOn == 1, Out: *out}
	rep, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.E2E["peak_rss_mb"] = peakRSSMB()
	rep.metric("peak_rss_mb", rep.E2E["peak_rss_mb"], "MB")
	os.Exit(emit(os.Stdout, *name, e, rep))
}

// emit prints the report and the result line and returns the exit code.
func emit(f *os.File, name string, e env, rep *report) int {
	w := bufio.NewWriter(f)
	defer w.Flush()
	fmt.Fprintf(w, "workload %s  seed %d  measured %v  trace %v\n", name, e.Seed, e.Seconds, e.Trace)
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	correct := true
	for _, c := range rep.checks {
		status := "ok  "
		if !c.OK {
			status, correct = "FAIL", false
		}
		fmt.Fprintf(w, "check %s %s: %s\n", status, c.Name, c.Detail)
	}
	defs, vals := endToEnd, rep.E2E
	if e.Trace {
		defs, vals = perLayer, rep.Layer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]map[string]any{}}
	if correct {
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(w, "check FAIL metric %s: not measured (%v)\n", d.Name, v)
				res.Correct, correct = false, false
				continue
			}
			res.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		}
	}
	if !correct {
		res.Metrics = map[string]map[string]any{}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !correct {
		return 1
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// derive mixes the workload seed with a per-use salt (splitmix64), so every
// seeded input changes with --seed and no two uses share a stream.
func derive(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Salts for derive: one per seeded input.
const (
	saltDataset = iota + 1
	saltTrain
	saltEval
	saltZipfPerm
	saltZipfDraw
	saltPoisson
	saltChurn
	saltServe
)

// cheapSetups is how often the training workloads, whose set-up takes
// tens of milliseconds, repeat it: enough that the median is steady.
const cheapSetups = 15

// setupTimes runs build n times and returns the median wall time and the
// last build's result; release, if not nil, frees each earlier result
// outside the timed region. Set-up is repeated so its median is steady
// enough to gate work moved into set-up.
func setupTimes[T any](n int, build func() (T, error), release func(T)) (float64, T, error) {
	var last T
	var walls []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if release != nil {
				release(last)
			}
			// Collect the earlier set-up so the peak RSS is one set-up's.
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return 0, last, err
		}
		walls = append(walls, time.Since(start).Seconds())
		last = v
	}
	return medianOf(walls), last, nil
}

// gcPause returns the cumulative GC stop-the-world pause.
func gcPause() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// tracePath names the Chrome trace file of a traced run.
func tracePath(e env, workload string) string {
	return filepath.Join(e.Out, fmt.Sprintf("trace-%s-seed%d.json", workload, e.Seed))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
