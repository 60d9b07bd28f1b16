// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Table I, Figures 2, 3a–d, 4a–b) plus the ablations of
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark executes a reduced experiment matrix per iteration
// (all nine application sizes, fewer repetitions than the CLI default) and
// logs the regenerated table once. cmd/aimes-experiments produces the
// full-size tables.
package aimes_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aimes"
	"aimes/internal/batch"
	"aimes/internal/experiments"
	"aimes/internal/sim"
	"aimes/internal/trace"
)

// benchReps keeps bench iterations affordable while preserving the shapes.
const benchReps = 4

func logOnce(b *testing.B, i int, buf *bytes.Buffer) {
	if i == 0 {
		b.Logf("\n%s", buf.String())
	}
}

// BenchmarkTableI regenerates the experiment/strategy matrix and validates
// one run per experiment row.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.WriteTableI(&buf); err != nil {
			b.Fatal(err)
		}
		for _, def := range experiments.TableI {
			res := experiments.Run(experiments.RunSpec{Exp: def, NTasks: 8, Rep: i})
			if res.Err != "" {
				b.Fatalf("exp %d failed: %s", def.ID, res.Err)
			}
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkFigure2 regenerates the TTC comparison across experiments 1–4
// for all nine application sizes.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		specs := experiments.Matrix(experiments.TableI, experiments.Sizes, benchReps)
		agg := experiments.Aggregate(experiments.RunAll(specs, 0))
		var buf bytes.Buffer
		if err := experiments.WriteFigure2(&buf, agg); err != nil {
			b.Fatal(err)
		}
		if violations := experiments.CheckShape(agg); len(violations) > 0 {
			b.Logf("shape violations (expected to be rare at %d reps): %v", benchReps, violations)
		}
		if cell := agg[3][2048]; cell != nil && cell.N > 0 {
			b.ReportMetric(cell.TTC.Mean(), "exp3-ttc-2048-s")
		}
		if cell := agg[1][2048]; cell != nil && cell.N > 0 {
			b.ReportMetric(cell.TTC.Mean(), "exp1-ttc-2048-s")
		}
		logOnce(b, i, &buf)
	}
}

// benchFigure3 regenerates one panel of Figure 3 (TTC, Tw, Tx, Ts).
func benchFigure3(b *testing.B, exp int) {
	def, err := experiments.Experiment(exp)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		specs := experiments.Matrix([]experiments.Definition{def}, experiments.Sizes, benchReps)
		agg := experiments.Aggregate(experiments.RunAll(specs, 0))
		var buf bytes.Buffer
		if err := experiments.WriteFigure3(&buf, agg, exp); err != nil {
			b.Fatal(err)
		}
		if cell := agg[exp][2048]; cell != nil && cell.N > 0 {
			b.ReportMetric(cell.Tw.Mean(), "tw-2048-s")
			b.ReportMetric(cell.Tx.Mean(), "tx-2048-s")
			b.ReportMetric(cell.Ts.Mean(), "ts-2048-s")
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkFigure3a — experiment 1 (early binding, uniform durations).
func BenchmarkFigure3a(b *testing.B) { benchFigure3(b, 1) }

// BenchmarkFigure3b — experiment 2 (early binding, Gaussian durations).
func BenchmarkFigure3b(b *testing.B) { benchFigure3(b, 2) }

// BenchmarkFigure3c — experiment 3 (late binding, uniform durations).
func BenchmarkFigure3c(b *testing.B) { benchFigure3(b, 3) }

// BenchmarkFigure3d — experiment 4 (late binding, Gaussian durations).
func BenchmarkFigure3d(b *testing.B) { benchFigure3(b, 4) }

// BenchmarkFigure4 regenerates the TTC error-bar comparison between early
// and late binding (experiments 1 and 3).
func BenchmarkFigure4(b *testing.B) {
	defs := []experiments.Definition{}
	for _, id := range []int{1, 3} {
		d, err := experiments.Experiment(id)
		if err != nil {
			b.Fatal(err)
		}
		defs = append(defs, d)
	}
	for i := 0; i < b.N; i++ {
		specs := experiments.Matrix(defs, experiments.Sizes, benchReps+2)
		agg := experiments.Aggregate(experiments.RunAll(specs, 0))
		var buf bytes.Buffer
		if err := experiments.WriteFigure4(&buf, agg); err != nil {
			b.Fatal(err)
		}
		var earlyStd, lateStd float64
		for _, n := range experiments.Sizes {
			if c := agg[1][n]; c != nil {
				earlyStd += c.TTC.Std()
			}
			if c := agg[3][n]; c != nil {
				lateStd += c.TTC.Std()
			}
		}
		b.ReportMetric(earlyStd/float64(len(experiments.Sizes)), "early-ttc-std-s")
		b.ReportMetric(lateStd/float64(len(experiments.Sizes)), "late-ttc-std-s")
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblationPilotCount sweeps pilot counts 1..5 (A1).
func BenchmarkAblationPilotCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationPilotCount(&buf, 256, benchReps, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblationEmergentWaits cross-validates the stochastic wait model
// against the full batch-scheduler simulation (A2).
func BenchmarkAblationEmergentWaits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationEmergentWaits(&buf, 64, 3, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblationPrediction compares random vs predictive resource
// selection (A3).
func BenchmarkAblationPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationPrediction(&buf, 256, benchReps, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblationFailures measures restart cost under failure injection
// (A4).
func BenchmarkAblationFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationFailures(&buf, 128, benchReps, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblationThroughput reports the throughput metric across all four
// strategies (A5).
func BenchmarkAblationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationThroughput(&buf, 256, benchReps, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblationHeterogeneous runs non-uniform (lognormal) task sizes
// (A6).
func BenchmarkAblationHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationHeterogeneous(&buf, 256, benchReps, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblationAdaptive compares static vs adaptive execution (A7).
func BenchmarkAblationAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationAdaptive(&buf, 128, benchReps, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblationAutoPilots compares fixed vs heuristic pilot counts (A8).
func BenchmarkAblationAutoPilots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationAutoPilots(&buf, 256, benchReps, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// --- Microbenchmarks for the substrate hot paths ---

// BenchmarkSimEngine measures raw event throughput of the DES core.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewSim()
	count := 0
	for i := 0; i < b.N; i++ {
		eng.Schedule(time.Duration(i)*time.Microsecond, func() { count++ })
	}
	eng.Run()
	if count != b.N {
		b.Fatalf("fired %d, want %d", count, b.N)
	}
}

// BenchmarkEASYBackfill measures the batch policy under a deep queue.
func BenchmarkEASYBackfill(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	queue := make([]*batch.Job, 256)
	for i := range queue {
		queue[i] = &batch.Job{
			ID: "j", Nodes: 1 + rng.Intn(64),
			Runtime:  time.Duration(rng.Intn(7200)) * time.Second,
			Walltime: time.Duration(3600+rng.Intn(7200)) * time.Second,
		}
	}
	running := make([]*batch.Job, 64)
	for i := range running {
		running[i] = &batch.Job{
			ID: "r", Nodes: 1 + rng.Intn(16),
			Walltime: time.Duration(600+rng.Intn(7200)) * time.Second,
		}
	}
	policy := batch.EASY{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Select(queue, 32, sim.Time(time.Duration(i)), running)
	}
}

// BenchmarkSpanUnion measures the trace-analysis hot path.
func BenchmarkSpanUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	spans := make([]trace.Span, 4096)
	for i := range spans {
		start := sim.Time(time.Duration(rng.Intn(100000)) * time.Millisecond)
		spans[i] = trace.Span{Start: start, End: start.Add(time.Duration(rng.Intn(60000)) * time.Millisecond)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.UnionDuration(spans)
	}
}

// BenchmarkSingleRun2048 measures one full 2048-task late-binding execution
// (the heaviest single point of the evaluation).
func BenchmarkSingleRun2048(b *testing.B) {
	def, err := experiments.Experiment(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.RunSpec{Exp: def, NTasks: 2048, Rep: i})
		if res.Err != "" {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkAblationEfficiency reports allocation consumption across
// strategies (A9).
func BenchmarkAblationEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationEfficiency(&buf, 256, benchReps, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// BenchmarkAblationStaged compares integrated vs staged enactment (A10).
func BenchmarkAblationStaged(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.AblationStaged(&buf, benchReps, 0); err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, &buf)
	}
}

// benchJobsPath resolves where BenchmarkConcurrentJobs writes its
// perf-trajectory record. `go test -bench` runs with the package directory
// as its working directory, which for this package is the repository root —
// but CI and make targets must not depend on that accident, so the path is
// anchored at this source file's directory (the repo root) via
// runtime.Caller. AIMES_BENCH_OUT overrides it.
func benchJobsPath() string {
	if p := os.Getenv("AIMES_BENCH_OUT"); p != "" {
		return p
	}
	if _, file, _, ok := runtime.Caller(0); ok {
		return filepath.Join(filepath.Dir(file), "BENCH_jobs.json")
	}
	return "BENCH_jobs.json"
}

// benchHistoryPath resolves the append-only bench trajectory log
// (BENCH_history.jsonl, one record per run) that cmd/bench-check's -drift
// mode reads to flag slow regressions no single-run gate would catch.
// AIMES_BENCH_HISTORY overrides it.
func benchHistoryPath() string {
	if p := os.Getenv("AIMES_BENCH_HISTORY"); p != "" {
		return p
	}
	if _, file, _, ok := runtime.Caller(0); ok {
		return filepath.Join(filepath.Dir(file), "BENCH_history.jsonl")
	}
	return "BENCH_history.jsonl"
}

// benchCommit identifies the commit a history record was measured at, or
// "unknown" outside a usable git checkout.
func benchCommit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	if _, file, _, ok := runtime.Caller(0); ok {
		cmd.Dir = filepath.Dir(file)
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchShardCounts is the shard sweep: 1 (the serialized pre-sharding
// configuration), 2, and the hardware parallelism, deduplicated and sorted.
func benchShardCounts() []int {
	maxprocs := runtime.GOMAXPROCS(0)
	counts := []int{1}
	if maxprocs > 2 {
		counts = append(counts, 2)
	}
	if maxprocs > 1 {
		counts = append(counts, maxprocs)
	}
	return counts
}

// BenchmarkConcurrentJobs measures multi-tenant job throughput through the
// async API: 100 concurrent 64-task workloads submitted to one shared
// environment and waited on from 100 goroutines, swept across shard counts
// {1, 2, GOMAXPROCS} plus a skewed-load point — every job pinned to shard 0
// but migratable, work stealing on — that measures how much of the balanced
// throughput cross-shard stealing recovers from an adversarial tenant mix
// (the skew_ratio cmd/bench-check gates). Alongside the standard ns/op each
// sub-benchmark reports jobs/s; the whole sweep lands in the perf-trajectory
// record BENCH_jobs.json (repo root; see benchJobsPath) that cmd/bench-check
// gates CI against, and is appended to BENCH_history.jsonl for the -drift
// slow-regression check.
func BenchmarkConcurrentJobs(b *testing.B) {
	const nJobs, nTasks = 100, 64
	cfg := aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
	}
	workloads := make([]*aimes.Workload, nJobs)
	for k := range workloads {
		w, err := aimes.GenerateWorkload(
			aimes.BagOfTasks(nTasks, aimes.UniformDuration()), int64(9000+k))
		if err != nil {
			b.Fatal(err)
		}
		workloads[k] = w
	}

	type sweepPoint struct {
		Shards         int     `json:"shards"`
		Iterations     int     `json:"iterations"`
		ElapsedSeconds float64 `json:"elapsed_seconds"`
		JobsPerSecond  float64 `json:"jobs_per_second"`
		// AllocsPerJob is the parent-process heap allocations per completed
		// job across the timed region (submit through last Wait). On the
		// worker backend the children are separate processes, so this
		// isolates exactly the client half of the wire hot path — encode,
		// write, read, decode, event dispatch.
		AllocsPerJob float64 `json:"allocs_per_job,omitempty"`
	}
	// measure runs the submit-everything-then-wait-everywhere body b.N
	// times against fresh environments and returns the throughput point.
	// Environment construction and teardown (n full shard stacks, or n
	// worker processes on the worker backend) stay outside the timed
	// region: the metric is job throughput, and the setup cost would
	// otherwise dilute exactly the speedup the CI gate measures.
	measure := func(b *testing.B, nShards int, mkEnv func(i int) (*aimes.Environment, error), jcfg aimes.JobConfig) sweepPoint {
		var mallocs uint64
		var ms0, ms1 runtime.MemStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			env, err := mkEnv(i)
			if err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&ms0)
			b.StartTimer()
			jobs := make([]*aimes.Job, nJobs)
			for k, w := range workloads {
				if jobs[k], err = env.Submit(context.Background(), w, jcfg); err != nil {
					b.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for k, j := range jobs {
				wg.Add(1)
				go func(k int, j *aimes.Job) {
					defer wg.Done()
					r, err := j.Wait(context.Background())
					if err != nil {
						b.Errorf("job %d: %v", k, err)
					} else if r.UnitsDone != nTasks {
						b.Errorf("job %d: %d units done", k, r.UnitsDone)
					}
				}(k, j)
			}
			wg.Wait()
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
			env.Close()
			b.StartTimer()
		}
		b.StopTimer()
		jobsPerSec := float64(nJobs*b.N) / b.Elapsed().Seconds()
		allocsPerJob := float64(mallocs) / float64(nJobs*b.N)
		b.ReportMetric(jobsPerSec, "jobs/s")
		b.ReportMetric(allocsPerJob, "allocs/job")
		return sweepPoint{
			Shards:         nShards,
			Iterations:     b.N,
			ElapsedSeconds: b.Elapsed().Seconds(),
			JobsPerSecond:  jobsPerSec,
			AllocsPerJob:   allocsPerJob,
		}
	}

	// The framework may invoke a sub-benchmark several times (probe run,
	// then the timed run); keep only the final measurement per shard count.
	byShards := map[int]sweepPoint{}
	counts := benchShardCounts()
	for _, nShards := range counts {
		b.Run(fmt.Sprintf("shards=%d", nShards), func(b *testing.B) {
			byShards[nShards] = measure(b, nShards, func(i int) (*aimes.Environment, error) {
				return aimes.NewEnv(aimes.WithSeed(int64(4242+i)), aimes.WithShards(nShards))
			}, aimes.JobConfig{StrategyConfig: cfg})
		})
	}
	sweep := make([]sweepPoint, 0, len(byShards))
	for _, nShards := range counts {
		if p, ok := byShards[nShards]; ok {
			sweep = append(sweep, p)
		}
	}
	if len(sweep) == 0 {
		b.Fatal("shard sweep produced no points")
	}

	// Skewed-load point: adversarial placement (all jobs pinned to shard 0,
	// migratable) with work stealing enabled, at the hardware shard count.
	// Meaningless without at least two shards, so it is skipped there.
	maxprocs := runtime.GOMAXPROCS(0)
	var skewed *sweepPoint
	if maxprocs >= 2 {
		b.Run(fmt.Sprintf("skewed-steal/shards=%d", maxprocs), func(b *testing.B) {
			p := measure(b, maxprocs, func(i int) (*aimes.Environment, error) {
				return aimes.NewEnv(aimes.WithSeed(int64(6262+i)),
					aimes.WithShards(maxprocs), aimes.WithWorkStealing())
			}, aimes.JobConfig{
				StrategyConfig: cfg,
				Placement:      aimes.PlacePinned, Shard: 0,
				Migrate: aimes.MigrateAllow,
			})
			skewed = &p
		})
	}

	// Worker-backend point: the same balanced workload with every shard as
	// a child OS process on the binary wire codec, gated by cmd/bench-check
	// -min-worker-ratio against the local peak. Unlike the shard sweep it
	// always runs — even on one hardware thread the wire cost is real and
	// worth tracking — so the worker count has a floor of two. The bench binary
	// self-hosts the workers (TestMain arms it).
	nWorkers := runtime.GOMAXPROCS(0)
	if nWorkers < 2 {
		nWorkers = 2
	}
	var workersPoint *sweepPoint
	b.Run(fmt.Sprintf("workers=%d/codec=binary", nWorkers), func(b *testing.B) {
		p := measure(b, nWorkers, func(i int) (*aimes.Environment, error) {
			return aimes.NewEnv(aimes.WithSeed(int64(8484+i)), aimes.WithShards(nWorkers), aimes.WithBackend(aimes.BackendWorker))
		}, aimes.JobConfig{StrategyConfig: cfg})
		workersPoint = &p
	})

	// The headline is the best-throughput point, not the widest one: on some
	// hardware an intermediate shard count wins.
	base, peak := sweep[0], sweep[0]
	for _, p := range sweep[1:] {
		if p.JobsPerSecond > peak.JobsPerSecond {
			peak = p
		}
	}
	skewRatio, skewedJPS := 0.0, 0.0
	if skewed != nil {
		skewedJPS = skewed.JobsPerSecond
		if balanced, ok := byShards[maxprocs]; ok && balanced.JobsPerSecond > 0 {
			skewRatio = skewed.JobsPerSecond / balanced.JobsPerSecond
		}
	}
	// skewKeys merges the skew measurements into a record only when the skew
	// point actually ran. On 1-core runners (GOMAXPROCS 1) stealing has no
	// second shard to steal to, the point is skipped, and emitting literal
	// zeros would read as "throughput collapsed" in the history; an absent
	// key is what bench-check treats as "skipped".
	skewKeys := func(m map[string]any) map[string]any {
		if skewed != nil {
			m["skewed_jobs_per_second"] = skewedJPS
			m["skew_ratio"] = skewRatio
		}
		return m
	}
	workersJPS, workerAllocs := 0.0, 0.0
	if workersPoint != nil {
		workersJPS = workersPoint.JobsPerSecond
		workerAllocs = workersPoint.AllocsPerJob
	}
	record := skewKeys(map[string]any{
		"benchmark":            "BenchmarkConcurrentJobs",
		"jobs":                 nJobs,
		"tasks_per_job":        nTasks,
		"gomaxprocs":           maxprocs,
		"sweep":                sweep,
		"jobs_per_second":      peak.JobsPerSecond,
		"peak_shards":          peak.Shards,
		"speedup_vs_one_shard": peak.JobsPerSecond / base.JobsPerSecond,
		// Worker-backend trajectory point (gated via bench-check
		// -min-worker-ratio against the local peak and -max-worker-allocs).
		"workers":                 nWorkers,
		"workers_jobs_per_second": workersJPS,
		"worker_allocs_per_job":   workerAllocs,
	})
	buf, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(benchJobsPath(), append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}

	// Append this run to the bench trajectory history: one compact JSONL
	// record per run, so bench-check -drift can flag slow regressions that
	// stay under the single-run threshold.
	hist := skewKeys(map[string]any{
		"time":                    time.Now().UTC().Format(time.RFC3339),
		"commit":                  benchCommit(),
		"gomaxprocs":              maxprocs,
		"jobs":                    nJobs,
		"tasks_per_job":           nTasks,
		"sweep":                   sweep,
		"jobs_per_second":         peak.JobsPerSecond,
		"workers_jobs_per_second": workersJPS,
		"worker_allocs_per_job":   workerAllocs,
	})
	line, err := json.Marshal(hist)
	if err != nil {
		b.Fatal(err)
	}
	f, err := os.OpenFile(benchHistoryPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}
