// Concurrent-shutdown battery: Environment.Close and Environment.Drain
// racing in-flight Submit and Wait. The contract under test: no call hangs,
// every rejected Submit and every failed Wait returns a descriptive error,
// and worker processes are reaped rather than leaked.
package aimes_test

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aimes"
)

// closeRaceScenario hammers one environment with concurrent submitters and
// waiters while Close fires mid-flight, then classifies every outcome.
func closeRaceScenario(t *testing.T, opts ...aimes.Option) {
	t.Helper()
	env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(31337)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	const submitters, perSubmitter = 4, 6
	var (
		wg          sync.WaitGroup
		submitted   atomic.Int64
		rejected    atomic.Int64
		waitOK      atomic.Int64
		waitFailed  atomic.Int64
		closeSignal = make(chan struct{})
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				w, err := aimes.GenerateWorkload(
					aimes.BagOfTasks(16, aimes.UniformDuration()), int64(100*g+i))
				if err != nil {
					t.Error(err)
					return
				}
				j, err := env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: cfg})
				if err != nil {
					// A post-Close submission must say why, not just "error".
					if !strings.Contains(err.Error(), "closed environment") {
						t.Errorf("submit rejection not descriptive: %v", err)
					}
					rejected.Add(1)
					continue
				}
				submitted.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				if _, err := j.Wait(ctx); err != nil {
					// In-flight jobs on a closed worker shard fail with the
					// shard named; a 60s timeout here means a hang.
					if ctx.Err() != nil {
						t.Errorf("Wait hung after Close (job %d)", j.ID())
					} else if !strings.Contains(err.Error(), "shard") {
						t.Errorf("post-Close failure not descriptive: %v", err)
					}
					waitFailed.Add(1)
				} else {
					waitOK.Add(1)
				}
				cancel()
				if i == 1 && g == 0 {
					close(closeSignal) // some jobs are provably in flight
				}
			}
		}(g)
	}

	<-closeSignal
	if err := env.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := env.Close(); err != nil {
		t.Errorf("second Close not a no-op: %v", err)
	}
	wg.Wait()

	// Deterministic coda (the racing rejections above are best-effort): a
	// Submit strictly after Close must always be rejected descriptively.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: cfg}); err == nil {
		t.Error("Submit accepted on a closed environment")
	} else if !strings.Contains(err.Error(), "closed environment") {
		t.Errorf("post-Close rejection not descriptive: %v", err)
	}
	t.Logf("submitted %d (ok %d, failed %d), rejected %d",
		submitted.Load(), waitOK.Load(), waitFailed.Load(), rejected.Load())
}

// TestCloseVsSubmitWaitLocal races Close against Submit/Wait on in-process
// shards: Close is a backend no-op there, so jobs admitted before Close
// still complete, later submissions are rejected descriptively, and
// nothing hangs.
func TestCloseVsSubmitWaitLocal(t *testing.T) {
	closeRaceScenario(t, aimes.WithShards(2))
}

// TestCloseVsSubmitWaitWorker races Close against Submit/Wait on worker
// shards: in-flight jobs fail descriptively (their shard named) as the
// children exit, later submissions are rejected, nothing hangs — and the
// worker processes themselves are reaped, not leaked.
func TestCloseVsSubmitWaitWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	before := workerChildren(t)
	closeRaceScenario(t, aimes.WithShards(2), aimes.WithBackend(aimes.BackendWorker))
	// Close must reap both children. The watcher kills on a short fuse
	// after an orderly close, so poll briefly.
	deadline := time.Now().Add(15 * time.Second)
	for {
		leaked := workerChildren(t)
		if leaked <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d worker process(es) still alive 15s after Close", leaked-before)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// workerChildren counts this process's direct children running the test
// binary — self-hosted workers are re-execs of os.Executable, so a nonzero
// delta across Close means leaked worker processes. Linux-only proc
// walking; skips elsewhere.
func workerChildren(t *testing.T) int {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Skipf("no executable path: %v", err)
	}
	procs, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	me := os.Getpid()
	count := 0
	for _, p := range procs {
		if _, err := strconv.Atoi(p.Name()); err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", p.Name(), "stat"))
		if err != nil {
			continue
		}
		// stat: pid (comm) state ppid ... — comm may embed spaces, so parse
		// from after the last ')'.
		s := string(stat)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		fields := strings.Fields(s[i+1:])
		if len(fields) < 2 {
			continue
		}
		ppid, err := strconv.Atoi(fields[1])
		if err != nil || ppid != me {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", p.Name(), "exe"))
		if err != nil {
			continue
		}
		// " (deleted)" suffixes appear when the binary was rebuilt mid-run.
		if strings.TrimSuffix(exe, " (deleted)") == self {
			count++
		}
	}
	return count
}

// TestDrainVsSubmit exercises the graceful half: Drain stops admission with
// a descriptive error while racing submitters, pumps every already-admitted
// job to completion (reports intact), and returns only when no shard owns a
// live job.
func TestDrainVsSubmit(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(404), aimes.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}

	var jobs []*aimes.Job
	for i := 0; i < 6; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(24, aimes.UniformDuration()), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	// Nobody calls Wait on these jobs: Drain itself must pump them.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := env.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !env.Draining() {
		t.Error("Draining() false after Drain")
	}
	for _, j := range jobs {
		if j.State() != aimes.JobDone {
			t.Errorf("job %d drained into state %v (%v)", j.ID(), j.State(), j.Err())
		}
		if r := j.Report(); r == nil || r.UnitsDone != 24 {
			t.Errorf("job %d: report %+v", j.ID(), r)
		}
	}

	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: cfg}); err == nil {
		t.Fatal("Submit accepted on a draining environment")
	} else if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("drain rejection not descriptive: %v", err)
	}
}
