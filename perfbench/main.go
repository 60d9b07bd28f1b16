// Command perfbench is the repository's benchmark: it drives the three job
// paths — Submit→Wait on local shards (local-bot), the same over worker
// processes on the binary wire codec (worker-wire), and Submit→final
// through the HTTP daemon (daemon-burst) — with seeded inputs, checks every
// output, and prints end-to-end metrics or, with --trace 1, per-layer
// metrics from a traced run and a layer replay. See README.md.
//
//	perfbench --workload local-bot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aimes"
)

// segLen is the length of one timed segment; a run of --seconds seconds is
// that many segments, each on a fresh environment.
const segLen = time.Second

// warmLen is the untimed warm-up segment run first in every process.
const warmLen = 300 * time.Millisecond

// spansDir is where a traced run writes its span file, relative to the
// repository root the benchmark runs from.
const spansDir = ".bench_build/spans"

var workloads = []string{"local-bot", "worker-wire", "daemon-burst"}

func main() {
	aimes.WorkerMain()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: local-bot, worker-wire or daemon-burst")
	fs.Int64Var(&o.seed, "seed", 1, "seed the job stream and environments are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds of timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner runs the segments of one workload.
type runner interface {
	segment(d time.Duration, tr *tracer) (*segment, error)
}

func bench(o options, out io.Writer) (*result, error) {
	var (
		newRunner func() runner
		pools     [2][]*jobSpec
		stream    []*jobSpec
		err       error
	)
	switch o.workload {
	case "local-bot", "worker-wire":
		kind := aimes.BackendLocal
		if o.workload == "worker-wire" {
			kind = aimes.BackendWorker
		}
		if pools, err = genClosed(o.seed); err != nil {
			return nil, err
		}
		newRunner = func() runner { return &closedRun{kind: kind, seed: o.seed, pools: pools, digestDue: true} }
	case "daemon-burst":
		if stream, err = genOpen(o.seed); err != nil {
			return nil, err
		}
		newRunner = func() runner {
			return &daemonRun{seed: o.seed, stream: stream, sched: rand.New(rand.NewSource(o.seed))}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	}

	// Warm caches, code paths and the worker binary's pages on a throwaway
	// runner, then measure on a fresh one so the job stream starts at the
	// beginning.
	if _, err := newRunner().segment(warmLen, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r := newRunner()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var plain, traced []*segment
	for i := 0; i < o.seconds; i++ {
		// A traced run alternates untraced and traced segments, so both
		// halves see the same machine conditions.
		var t *tracer
		if o.trace && i%2 == 1 {
			t = tr
		}
		seg, err := r.segment(segLen, t)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		if t != nil {
			traced = append(traced, seg)
		} else {
			plain = append(plain, seg)
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range append(append([]*segment(nil), plain...), traced...) {
		res.Attempted += s.jobs + s.failed
		res.Failed += s.failed
	}
	fmt.Fprintf(out, "workload %s  seed %d  segments %d x %v  GOMAXPROCS %d\n",
		o.workload, o.seed, o.seconds, segLen, runtime.GOMAXPROCS(0))

	var obs *observations
	var lats []float64
	switch r := r.(type) {
	case *closedRun:
		obs, lats = &r.obs, r.latencies
		got, err := digestOf(r.prefix)
		if err != nil {
			return nil, err
		}
		want, err := r.referenceDigest()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "report digest %s (first %d jobs per client); other backend %s\n", got, digestJobs, want)
		if got != want || len(r.prefix[0]) != digestJobs || len(r.prefix[1]) != digestJobs {
			res.Failed++
			r.obs.fail("report digest %s differs from the other backend's %s", got, want)
		}
	case *daemonRun:
		obs, lats = &r.obs, r.latencies
	}
	for _, e := range obs.errs {
		fmt.Fprintf(out, "FAILED: %s\n", e)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(out, "failed_frac %.4f (%d of %d)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)

	e2e := endToEnd(plain, lats)
	if !o.trace {
		printTable(out, "end-to-end", endToEndMetrics, e2e, nil, nil)
		tail, _ := highestTail(len(lats), 10)
		fmt.Fprintf(out, "  %-32s %14.4f %-8s (%d samples; highest tail with 10 beyond: p%g; not gated)\n",
			"latency_p99_ms", percentile(lats, 99), "ms", len(lats), tail)
		for _, d := range endToEndMetrics {
			res.Metrics[d.name] = metric{Value: e2e[d.name], Unit: d.unit}
		}
		return res, nil
	}

	layers, na, notes, err := perLayer(o, r, pools, stream, plain, traced, e2e, tr)
	if err != nil {
		return nil, err
	}
	printTable(out, "per-layer", perLayerMetrics, layers, na, notes)
	fmt.Fprintf(out, "%-28s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, lt := range selfTimes(tr.spans) {
		fmt.Fprintf(out, "%-28s %8d %12.1f %12.1f\n", lt.Name, lt.Count, ms(lt.Total), ms(lt.Self))
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metric{Value: layers[d.name], Unit: d.unit}
	}
	return res, nil
}

type metricDef struct{ name, unit string }

// endToEndMetrics are the metrics of an untraced run; BENCHMARK.json lists
// the same names and units. latency_p99_ms is printed with them but is not
// among them: on this class of machine its run-to-run spread exceeds any
// bound the format allows (see README.md).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_job", "ms"},
	{"allocs_per_job", "count"},
	{"alloc_kb_per_job", "KB"},
	{"retained_kb_per_job", "KB"},
}

// endToEnd computes the end-to-end metrics from untraced segments: per
// segment ratios reduced to their median, latencies pooled.
func endToEnd(segs []*segment, lats []float64) map[string]float64 {
	var setup, rate, cpu, allocs, kb, retained []float64
	for _, s := range segs {
		n := float64(max(s.jobs, 1))
		setup = append(setup, s.setup.Seconds())
		rate = append(rate, float64(s.jobs)/s.wall.Seconds())
		cpu = append(cpu, ms(s.cpuPerJob()))
		allocs = append(allocs, float64(s.mallocs)/n)
		kb = append(kb, float64(s.bytes)/1024/n)
		retained = append(retained, float64(s.retained)/1024/n)
	}
	return map[string]float64{
		"setup_s":             median(setup),
		"jobs_per_s":          median(rate),
		"latency_p50_ms":      percentile(lats, 50),
		"cpu_ms_per_job":      median(cpu),
		"allocs_per_job":      median(allocs),
		"alloc_kb_per_job":    median(kb),
		"retained_kb_per_job": median(retained),
	}
}

func printTable(out io.Writer, title string, defs []metricDef, vals map[string]float64, na, notes map[string]string) {
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, d := range defs {
		if reason, ok := na[d.name]; ok {
			fmt.Fprintf(out, "  %-32s %14s %-8s (%s)\n", d.name, "n/a", d.unit, reason)
			continue
		}
		fmt.Fprintf(out, "  %-32s %14.4f %-8s %s\n", d.name, vals[d.name], d.unit, notes[d.name])
	}
}
