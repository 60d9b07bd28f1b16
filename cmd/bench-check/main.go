// Command bench-check is the CI perf-regression gate for the multi-tenant
// job throughput benchmark. It compares the freshly produced shard sweep
// (BENCH_jobs.json, written by BenchmarkConcurrentJobs) against the
// committed baseline (BENCH_baseline.json) and fails when jobs/s drops more
// than the threshold below the baseline at any shard count both files
// measured. It also gates the skewed-load ratio — how much of the balanced
// throughput cross-shard work stealing recovers when every job is pinned to
// shard 0 — and, with -drift, flags slow regressions across the bench
// trajectory history (BENCH_history.jsonl) that no single-run comparison
// would catch.
//
//	go test -bench BenchmarkConcurrentJobs -benchtime 1x -run '^$' .
//	go run ./cmd/bench-check                  # gate against the baseline
//	go run ./cmd/bench-check -update          # refresh the baseline
//	go run ./cmd/bench-check -min-speedup 1.5 # also require the shard speedup
//	go run ./cmd/bench-check -drift 20        # also check the last 20 history records
//	go run ./cmd/bench-check -min-worker-ratio 0.5  # worker backend ≥ half the local peak
//	go run ./cmd/bench-check -max-worker-allocs 30000 # parent-side allocs/job ceiling
//
// Shard counts present in only one file (e.g. a different GOMAXPROCS than
// the machine that recorded the baseline) are reported but not compared, so
// the gate stays meaningful across runners with different core counts; the
// same shape filter applies to history records in -drift mode.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// sweepPoint mirrors one entry of the benchmark's shard sweep.
type sweepPoint struct {
	Shards         int     `json:"shards"`
	Iterations     int     `json:"iterations"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	JobsPerSecond  float64 `json:"jobs_per_second"`
}

// record mirrors BENCH_jobs.json.
type record struct {
	Benchmark           string       `json:"benchmark"`
	Jobs                int          `json:"jobs"`
	TasksPerJob         int          `json:"tasks_per_job"`
	GOMAXPROCS          int          `json:"gomaxprocs"`
	Sweep               []sweepPoint `json:"sweep"`
	JobsPerSecond       float64      `json:"jobs_per_second"`
	PeakShards          int          `json:"peak_shards"`
	SpeedupVsOneShard   float64      `json:"speedup_vs_one_shard"`
	SkewedJobsPerSecond float64      `json:"skewed_jobs_per_second"`
	SkewRatio           float64      `json:"skew_ratio"`

	// Worker-backend point: out-of-process shards over the binary wire.
	Workers            int     `json:"workers"`
	WorkersJPS         float64 `json:"workers_jobs_per_second"`
	WorkerAllocsPerJob float64 `json:"worker_allocs_per_job"`
}

// histRecord mirrors one BENCH_history.jsonl line.
type histRecord struct {
	Time          string  `json:"time"`
	Commit        string  `json:"commit"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Jobs          int     `json:"jobs"`
	TasksPerJob   int     `json:"tasks_per_job"`
	JobsPerSecond float64 `json:"jobs_per_second"`
	SkewRatio     float64 `json:"skew_ratio"`
}

func load(path string) (*record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Sweep) == 0 {
		return nil, fmt.Errorf("%s: no shard sweep recorded", path)
	}
	return &r, nil
}

func loadHistory(path string) ([]histRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []histRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var h histRecord
		if err := json.Unmarshal(line, &h); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		// The committed history still holds one old kind=model-fidelity
		// record from a since-removed cost-model check; it carries no
		// throughput and would read as a total collapse in drift mode, so
		// only throughput-bearing records participate.
		if h.JobsPerSecond == 0 {
			continue
		}
		out = append(out, h)
	}
	return out, sc.Err()
}

// checkDrift compares the newest history record against the median of up to
// n preceding records of the same workload shape and GOMAXPROCS. A slow
// regression — each step under the single-run threshold, but the sum well
// over it — shows up as the newest run sitting more than threshold below
// that median.
func checkDrift(path string, n int, threshold float64) (failure string) {
	hist, err := loadHistory(path)
	if err != nil {
		fatal("reading history: %v", err)
	}
	if len(hist) == 0 {
		fmt.Printf("bench-check: drift: %s is empty, nothing to compare\n", path)
		return ""
	}
	latest := hist[len(hist)-1]
	var prior []float64
	for i := len(hist) - 2; i >= 0 && len(prior) < n; i-- {
		h := hist[i]
		if h.Jobs != latest.Jobs || h.TasksPerJob != latest.TasksPerJob || h.GOMAXPROCS != latest.GOMAXPROCS {
			continue
		}
		prior = append(prior, h.JobsPerSecond)
	}
	if len(prior) < 2 {
		fmt.Printf("bench-check: drift: only %d comparable prior record(s) (same shape, GOMAXPROCS %d), need 2 — skipped\n",
			len(prior), latest.GOMAXPROCS)
		return ""
	}
	sort.Float64s(prior)
	median := prior[len(prior)/2]
	if len(prior)%2 == 0 {
		median = (prior[len(prior)/2-1] + prior[len(prior)/2]) / 2
	}
	floor := median * (1 - threshold)
	verdict := "ok"
	if latest.JobsPerSecond < floor {
		verdict = "DRIFT"
		failure = fmt.Sprintf("latest run (%s, %.0f jobs/s) drifted more than %.0f%% below the median of the last %d comparable runs (%.0f jobs/s)",
			latest.Commit, latest.JobsPerSecond, threshold*100, len(prior), median)
	}
	fmt.Printf("bench-check: drift: latest %8.0f jobs/s vs median of %d prior runs %8.0f (floor %8.0f) %s\n",
		latest.JobsPerSecond, len(prior), median, floor, verdict)
	return failure
}

func main() {
	currentPath := flag.String("current", "BENCH_jobs.json", "fresh benchmark record to check")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline record")
	historyPath := flag.String("history", "BENCH_history.jsonl", "append-only bench trajectory history (for -drift)")
	threshold := flag.Float64("threshold", 0.25, "maximum tolerated fractional jobs/s drop below baseline")
	minSpeedup := flag.Float64("min-speedup", 0, "minimum required speedup at the peak shard count vs one shard (0 disables; skipped when GOMAXPROCS < 2)")
	minSkew := flag.Float64("min-skew", 0.70, "minimum required skewed-load ratio: all-jobs-on-shard-0 throughput with stealing vs balanced round-robin (0 disables; skipped when the record has no skew point)")
	minWorkerRatio := flag.Float64("min-worker-ratio", 0, "minimum required worker-backend throughput as a fraction of the local-shard peak (0 disables; skipped when the record has no worker point)")
	maxWorkerAllocs := flag.Float64("max-worker-allocs", 0, "maximum tolerated parent-side heap allocations per job on the worker backend (0 disables)")
	drift := flag.Int("drift", 0, "compare the newest history record against the median of up to N prior comparable records (0 disables)")
	driftThreshold := flag.Float64("drift-threshold", 0.25, "maximum tolerated fractional drop below the history median in -drift mode")
	update := flag.Bool("update", false, "copy the current record over the baseline and exit")
	flag.Parse()

	cur, err := load(*currentPath)
	if err != nil {
		fatal("reading current record: %v", err)
	}

	if *update {
		buf, err := os.ReadFile(*currentPath)
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*baselinePath, buf, 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("bench-check: baseline %s updated (%.0f jobs/s peak at %d shard(s), GOMAXPROCS %d)\n",
			*baselinePath, cur.JobsPerSecond, cur.PeakShards, cur.GOMAXPROCS)
		return
	}

	base, err := load(*baselinePath)
	if err != nil {
		fatal("reading baseline: %v", err)
	}
	if cur.Jobs != base.Jobs || cur.TasksPerJob != base.TasksPerJob {
		fatal("workload shape changed: current %d jobs × %d tasks, baseline %d × %d — refresh the baseline (-update)",
			cur.Jobs, cur.TasksPerJob, base.Jobs, base.TasksPerJob)
	}
	if cur.GOMAXPROCS != base.GOMAXPROCS {
		fmt.Printf("bench-check: note: GOMAXPROCS differs (current %d, baseline %d); comparing only shard counts both measured\n",
			cur.GOMAXPROCS, base.GOMAXPROCS)
	}

	baseBy := map[int]sweepPoint{}
	for _, p := range base.Sweep {
		baseBy[p.Shards] = p
	}
	var failures []string
	compared := 0
	for _, p := range cur.Sweep {
		b, ok := baseBy[p.Shards]
		if !ok {
			fmt.Printf("bench-check: shards=%-3d %8.0f jobs/s (no baseline point, skipped)\n", p.Shards, p.JobsPerSecond)
			continue
		}
		compared++
		floor := b.JobsPerSecond * (1 - *threshold)
		verdict := "ok"
		if p.JobsPerSecond < floor {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("shards=%d dropped more than %.0f%% below baseline", p.Shards, *threshold*100))
		}
		fmt.Printf("bench-check: shards=%-3d %8.0f jobs/s vs baseline %8.0f (floor %8.0f) %s\n",
			p.Shards, p.JobsPerSecond, b.JobsPerSecond, floor, verdict)
	}
	if compared == 0 {
		fatal("no shard count measured by both current and baseline — refresh the baseline (-update)")
	}
	fmt.Printf("bench-check: speedup at %d shard(s) vs 1: %.2fx\n", cur.PeakShards, cur.SpeedupVsOneShard)
	if *minSpeedup > 0 {
		if cur.GOMAXPROCS < 2 {
			fmt.Printf("bench-check: GOMAXPROCS=%d, speedup requirement skipped (no hardware parallelism)\n", cur.GOMAXPROCS)
		} else if cur.SpeedupVsOneShard < *minSpeedup {
			failures = append(failures, fmt.Sprintf("speedup %.2fx below required %.2fx", cur.SpeedupVsOneShard, *minSpeedup))
		}
	}
	if *minSkew > 0 {
		switch {
		case cur.SkewRatio == 0:
			fmt.Printf("bench-check: no skewed-load point recorded (GOMAXPROCS %d), skew requirement skipped\n", cur.GOMAXPROCS)
		case cur.SkewRatio < *minSkew:
			failures = append(failures, fmt.Sprintf("skewed-load ratio %.2f below required %.2f (stealing recovered %.0f of %.0f balanced jobs/s)",
				cur.SkewRatio, *minSkew, cur.SkewedJobsPerSecond, cur.SkewedJobsPerSecond/cur.SkewRatio))
		default:
			fmt.Printf("bench-check: skewed-load ratio %.2f (all jobs pinned to shard 0, stealing on) ok\n", cur.SkewRatio)
		}
	}
	if *minWorkerRatio > 0 {
		if cur.WorkersJPS == 0 {
			fmt.Printf("bench-check: no worker-backend point recorded, worker-ratio requirement skipped\n")
		} else {
			ratio := cur.WorkersJPS / cur.JobsPerSecond
			verdict := "ok"
			if ratio < *minWorkerRatio {
				verdict = "REGRESSION"
				failures = append(failures, fmt.Sprintf("worker-backend ratio %.2f below required %.2f (%.0f worker jobs/s vs %.0f local peak)",
					ratio, *minWorkerRatio, cur.WorkersJPS, cur.JobsPerSecond))
			}
			fmt.Printf("bench-check: worker backend (%d workers, binary codec) %8.0f jobs/s = %.2f of local peak %s\n",
				cur.Workers, cur.WorkersJPS, ratio, verdict)
		}
	}
	if *maxWorkerAllocs > 0 {
		if cur.WorkerAllocsPerJob == 0 {
			fmt.Printf("bench-check: no worker allocs/job recorded, alloc requirement skipped\n")
		} else if cur.WorkerAllocsPerJob > *maxWorkerAllocs {
			failures = append(failures, fmt.Sprintf("worker backend allocates %.0f objects/job parent-side, over the %.0f ceiling",
				cur.WorkerAllocsPerJob, *maxWorkerAllocs))
		} else {
			fmt.Printf("bench-check: worker backend allocs/job %.0f (ceiling %.0f) ok\n", cur.WorkerAllocsPerJob, *maxWorkerAllocs)
		}
	}
	if *drift > 0 {
		if f := checkDrift(*historyPath, *drift, *driftThreshold); f != "" {
			failures = append(failures, f)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "bench-check: FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("bench-check: pass")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench-check: "+format+"\n", args...)
	os.Exit(1)
}
