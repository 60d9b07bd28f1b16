package aimes_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"aimes"
)

// shardCfg is the strategy used by the sharding tests.
var shardCfg = aimes.StrategyConfig{
	Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
}

// TestShardedJobsCompleteWithoutCollisions runs 32 jobs across 4 explicit
// shards under the race detector: every job completes, placement cycles
// round-robin, and no two jobs — on the same shard or different shards —
// share a pilot ID in the aggregate trace.
func TestShardedJobsCompleteWithoutCollisions(t *testing.T) {
	const nShards, nJobs, nTasks = 4, 32, 8
	env, err := aimes.NewEnv(aimes.WithSeed(501), aimes.WithShards(nShards))
	if err != nil {
		t.Fatal(err)
	}
	if env.Shards() != nShards {
		t.Fatalf("Shards() = %d, want %d", env.Shards(), nShards)
	}
	jobs := submitN(t, env, nJobs, nTasks, shardCfg)
	for i, j := range jobs {
		if want := i % nShards; j.Shard() != want {
			t.Fatalf("job %d placed on shard %d, want round-robin %d", i, j.Shard(), want)
		}
	}

	var wg sync.WaitGroup
	reports := make([]*aimes.Report, nJobs)
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *aimes.Job) {
			defer wg.Done()
			r, err := j.Wait(context.Background())
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			reports[i] = r
		}(i, j)
	}
	wg.Wait()

	pilotOwner := map[string]int{}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("job %d: no report", i)
		}
		if r.UnitsDone != nTasks {
			t.Fatalf("job %d: %d units done, want %d", i, r.UnitsDone, nTasks)
		}
		want := "." + jobs[i].Namespace() + "-"
		for id := range r.PilotWaits {
			if !strings.Contains(id, want) {
				t.Fatalf("job %d pilot %q lacks its namespace %q", i, id, jobs[i].Namespace())
			}
			if prev, dup := pilotOwner[id]; dup {
				t.Fatalf("pilot ID %q used by jobs %d and %d", id, prev, i)
			}
			pilotOwner[id] = i
		}
	}
	// Aggregate pilot entities are unique per (shard, job, seq) too.
	seen := map[string]bool{}
	for _, rec := range env.Recorder().ByState("NEW") {
		if !strings.HasPrefix(rec.Entity, "pilot.") {
			continue
		}
		if seen[rec.Entity] {
			t.Fatalf("aggregate trace has duplicate pilot entity %q", rec.Entity)
		}
		seen[rec.Entity] = true
	}
}

// TestPinnedShardDeterminism is the per-shard determinism contract: the same
// seed and the same per-shard submission order reproduce identical reports
// for a pinned tenant, even when the traffic on every other shard differs
// completely between the two runs.
func TestPinnedShardDeterminism(t *testing.T) {
	const nShards, pinned = 3, 1
	run := func(noise int) []*aimes.Report {
		env, err := aimes.NewEnv(aimes.WithSeed(77), aimes.WithShards(nShards))
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*aimes.Job
		// Different background traffic on the other shards per run.
		for i := 0; i < noise; i++ {
			w, err := aimes.GenerateWorkload(
				aimes.BagOfTasks(4+2*i, aimes.UniformDuration()), int64(9000+100*noise+i))
			if err != nil {
				t.Fatal(err)
			}
			j, err := env.Submit(context.Background(), w, aimes.JobConfig{
				StrategyConfig: shardCfg,
				Placement:      aimes.PlacePinned, Shard: (pinned + 1 + i%2) % nShards,
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		// The pinned tenant's sequence is identical across runs.
		var pinnedJobs []*aimes.Job
		for i := 0; i < 3; i++ {
			w, err := aimes.GenerateWorkload(aimes.BagOfTasks(6, aimes.UniformDuration()), int64(400+i))
			if err != nil {
				t.Fatal(err)
			}
			j, err := env.Submit(context.Background(), w, aimes.JobConfig{
				StrategyConfig: shardCfg,
				Placement:      aimes.PlacePinned, Shard: pinned,
			})
			if err != nil {
				t.Fatal(err)
			}
			if j.Shard() != pinned {
				t.Fatalf("pinned job on shard %d", j.Shard())
			}
			pinnedJobs = append(pinnedJobs, j)
		}
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j *aimes.Job) {
				defer wg.Done()
				if _, err := j.Wait(context.Background()); err != nil {
					t.Errorf("noise job: %v", err)
				}
			}(j)
		}
		reports := make([]*aimes.Report, len(pinnedJobs))
		for i, j := range pinnedJobs {
			wg.Add(1)
			go func(i int, j *aimes.Job) {
				defer wg.Done()
				r, err := j.Wait(context.Background())
				if err != nil {
					t.Errorf("pinned job %d: %v", i, err)
				}
				reports[i] = r
			}(i, j)
		}
		wg.Wait()
		return reports
	}
	a, b := run(2), run(7)
	for i := range a {
		if a[i] == nil || b[i] == nil {
			t.Fatalf("pinned job %d: missing report", i)
		}
		if a[i].TTC != b[i].TTC || a[i].Tw != b[i].Tw || a[i].Tx != b[i].Tx || a[i].Ts != b[i].Ts {
			t.Fatalf("pinned job %d diverged under different cross-shard noise: TTC %v vs %v",
				i, a[i].TTC, b[i].TTC)
		}
		if fmt.Sprint(a[i].PilotWaits) != fmt.Sprint(b[i].PilotWaits) {
			t.Fatalf("pinned job %d pilot IDs/waits diverged: %v vs %v",
				i, a[i].PilotWaits, b[i].PilotWaits)
		}
	}
}

// TestLeastLoadedPlacementSpreads submits equally sized jobs under
// PlaceLeastLoaded before anything pumps: the in-flight task counts force a
// perfectly even spread, two jobs per shard.
func TestLeastLoadedPlacementSpreads(t *testing.T) {
	const nShards, nJobs = 4, 8
	env, err := aimes.NewEnv(aimes.WithSeed(31), aimes.WithShards(nShards))
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([]int, nShards)
	var jobs []*aimes.Job
	for i := 0; i < nJobs; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), int64(700+i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: shardCfg, Placement: aimes.PlaceLeastLoaded,
		})
		if err != nil {
			t.Fatal(err)
		}
		perShard[j.Shard()]++
		jobs = append(jobs, j)
	}
	for k, n := range perShard {
		if n != nJobs/nShards {
			t.Fatalf("shard %d got %d jobs, want %d (distribution %v)", k, n, nJobs/nShards, perShard)
		}
	}
	// Completed jobs release their load: the next least-loaded submissions
	// spread again instead of stacking onto one shard.
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *aimes.Job) {
			defer wg.Done()
			if _, err := j.Wait(context.Background()); err != nil {
				t.Errorf("wait: %v", err)
			}
		}(j)
	}
	wg.Wait()
	refill := make([]int, nShards)
	for i := 0; i < nShards; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), int64(800+i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: shardCfg, Placement: aimes.PlaceLeastLoaded,
		})
		if err != nil {
			t.Fatal(err)
		}
		refill[j.Shard()]++
	}
	for k, n := range refill {
		if n != 1 {
			t.Fatalf("post-completion spread uneven: shard %d got %d (distribution %v)", k, n, refill)
		}
	}
}

// TestWithShardsValidation covers the option's rejection paths and the
// pinned-placement range check.
func TestWithShardsValidation(t *testing.T) {
	for _, n := range []int{0, -1, -8} {
		if _, err := aimes.NewEnv(aimes.WithShards(n)); err == nil {
			t.Fatalf("WithShards(%d) accepted", n)
		} else if !strings.Contains(err.Error(), "at least 1") {
			t.Fatalf("WithShards(%d) error %q", n, err)
		}
	}
	if _, err := aimes.NewEnv(aimes.WithRealTime(), aimes.WithShards(2)); err == nil {
		t.Fatal("WithRealTime + WithShards(2) accepted")
	}
	if _, err := aimes.NewEnv(aimes.WithRealTime(), aimes.WithShards(1)); err != nil {
		t.Fatalf("WithRealTime + WithShards(1) rejected: %v", err)
	}

	env, err := aimes.NewEnv(aimes.WithSeed(1), aimes.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, 2, 7} {
		if _, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: shardCfg, Placement: aimes.PlacePinned, Shard: bad,
		}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("pinned shard %d: error %v", bad, err)
		}
	}
	// Placement(3) was the retired predictive policy.
	for _, bad := range []aimes.Placement{3, 99} {
		if _, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: shardCfg, Placement: bad,
		}); err == nil || !strings.Contains(err.Error(), "unknown placement") {
			t.Fatalf("placement %d: error = %v", bad, err)
		}
	}
	// Rejected submissions consume neither global nor shard-local IDs.
	j, err := env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: shardCfg})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != 1 || j.Namespace() != "s0-j1" {
		t.Fatalf("first accepted job: ID %d ns %s", j.ID(), j.Namespace())
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShardNamespaces pins jobs to chosen shards and checks the namespace
// convention end to end: shard-local sequence numbers, shard-qualified pilot
// IDs, and per-shard recorders that partition the aggregate trace.
func TestShardNamespaces(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(11), aimes.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	submitPinned := func(k int, seed int64) *aimes.Job {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), seed)
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: shardCfg, Placement: aimes.PlacePinned, Shard: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j1 := submitPinned(1, 21) // shard 1's first job
	j2 := submitPinned(0, 22) // shard 0's first job
	j3 := submitPinned(1, 23) // shard 1's second job
	for _, c := range []struct {
		j  *aimes.Job
		ns string
	}{{j1, "s1-j1"}, {j2, "s0-j1"}, {j3, "s1-j2"}} {
		if c.j.Namespace() != c.ns {
			t.Fatalf("job %d namespace %q, want %q", c.j.ID(), c.j.Namespace(), c.ns)
		}
	}
	for _, j := range []*aimes.Job{j1, j2, j3} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Per-shard recorders hold only their shard's namespaces.
	for k := 0; k < 2; k++ {
		rec := env.ShardRecorder(k)
		if rec.Len() == 0 {
			t.Fatalf("shard %d trace empty", k)
		}
		other := fmt.Sprintf("s%d-", 1-k)
		for _, r := range rec.Records() {
			if strings.Contains(r.Entity, other) {
				t.Fatalf("shard %d trace holds foreign entity %q", k, r.Entity)
			}
		}
	}
	if env.ShardRecorder(-1) != nil || env.ShardRecorder(2) != nil {
		t.Fatal("out-of-range ShardRecorder not nil")
	}
	if env.ShardBundle(0) == nil || env.ShardBundle(2) != nil {
		t.Fatal("ShardBundle range handling broken")
	}
}

// TestLeastLoadedSkipsSealedShard: with work stealing on, a pinned,
// non-migratable job seals its shard, and least-loaded submissions must then
// avoid that shard even when it carries the least load. Otherwise they
// consume the pinned tenant's shard-local sequence, and the tenant's next
// pinned job stops being s0-j2.
func TestLeastLoadedSkipsSealedShard(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(5), aimes.WithShards(2), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	submit := func(tasks int, seed int64, cfg aimes.JobConfig) *aimes.Job {
		t.Helper()
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(tasks, aimes.UniformDuration()), seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.StrategyConfig = shardCfg
		j, err := env.Submit(context.Background(), w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	pinned := aimes.JobConfig{Placement: aimes.PlacePinned, Shard: 0}
	jobs := []*aimes.Job{submit(4, 1, pinned)}
	// Shard 0 is sealed and lightly loaded; the 64-task job makes shard 1
	// the heavier one for the two small jobs that follow.
	for i, tasks := range []int{64, 4, 4} {
		j := submit(tasks, int64(10+i), aimes.JobConfig{Placement: aimes.PlaceLeastLoaded})
		if j.Shard() != 1 {
			t.Errorf("least-loaded job %d (%d tasks) landed on sealed shard %d", i, tasks, j.Shard())
		}
		jobs = append(jobs, j)
	}
	next := submit(4, 2, pinned)
	if ns := next.Namespace(); ns != "s0-j2" {
		t.Errorf("pinned tenant's second job is %s, want s0-j2", ns)
	}
	for _, j := range append(jobs, next) {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
