// Backend-seam battery: the local-vs-worker parity matrix (the same seeded,
// pinned multi-tenant scenario must produce identical reports on both
// backends), worker crash containment (a killed worker fails only its own
// shard's jobs, descriptively), the constant admission window, steal-aware
// staged placement with coherent wait feedback, and the ordered
// aggregate-trace merge with live subscriptions.
package aimes_test

import (
	"context"
	"net"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aimes"
	"aimes/internal/backend"
)

// TestMain lets this test binary serve as its own worker pool: a child
// spawned with the worker environment variable set serves the framed
// protocol on stdio and exits inside WorkerMain; every other invocation
// runs the tests, with the current executable armed as the worker command.
func TestMain(m *testing.M) {
	aimes.WorkerMain()
	os.Exit(m.Run())
}

// jobOutcome is the comparable signature of one finished job.
type jobOutcome struct {
	Namespace string
	Shard     int
	Report    *aimes.Report
}

// runParityScenario runs the same seeded multi-tenant scenario — three
// shards, two pinned tenants per shard, distinct workloads, concurrent
// waiters — and returns the outcome of every job in submission order.
func runParityScenario(t *testing.T, opts ...aimes.Option) []jobOutcome {
	t.Helper()
	const nShards, perShard = 3, 2
	env, err := aimes.NewEnv(append([]aimes.Option{aimes.WithSeed(20260728)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if got := env.Shards(); got != nShards {
		t.Fatalf("got %d shards, want %d", got, nShards)
	}
	cfgs := []aimes.StrategyConfig{
		{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2},
		{Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1},
	}
	var jobs []*aimes.Job
	for k := 0; k < nShards; k++ {
		for i := 0; i < perShard; i++ {
			w, err := aimes.GenerateWorkload(
				aimes.BagOfTasks(8+4*i, aimes.UniformDuration()), int64(1000*k+i))
			if err != nil {
				t.Fatal(err)
			}
			j, err := env.Submit(context.Background(), w, aimes.JobConfig{
				StrategyConfig: cfgs[i%len(cfgs)],
				Placement:      aimes.PlacePinned, Shard: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *aimes.Job) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			if _, err := j.Wait(ctx); err != nil {
				t.Errorf("job %d: %v", j.ID(), err)
			}
		}(j)
	}
	wg.Wait()
	var out []jobOutcome
	for _, j := range jobs {
		out = append(out, jobOutcome{Namespace: j.Namespace(), Shard: j.Shard(), Report: j.Report()})
	}
	return out
}

// tcpWorkerHost returns the address and secret of a TCP worker host for the
// parity tests: the external host named by $AIMES_TEST_WORKER_ADDR (the CI
// tcp-smoke job points this at a real `aimes-worker serve` process), or an
// in-process listener otherwise — the shard stacks it hosts are the same
// Local stacks either way.
func tcpWorkerHost(t *testing.T) (addr, secret string) {
	t.Helper()
	if addr := os.Getenv("AIMES_TEST_WORKER_ADDR"); addr != "" {
		return addr, os.Getenv("AIMES_TEST_WORKER_SECRET")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	secret = "parity-test-secret"
	go backend.ServeListener(ln, backend.ServeConfig{Secret: secret})
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), secret
}

// tcpWorkers runs every shard against the single TCP worker host at addr.
func tcpWorkers(addr, secret string) aimes.Option {
	return aimes.WithWorkerPool(aimes.WorkerPool{
		Endpoints: []aimes.WorkerEndpoint{{Addr: addr}},
		Secret:    secret,
	})
}

// TestBackendParity is the acceptance matrix for the backend seam: the same
// seeded, pinned workload mix must produce identical per-job reports —
// strategies, TTC decompositions, pilot waits, allocation accounting — on
// the in-process backend and on worker shards over every transport.
func TestBackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	local := runParityScenario(t, aimes.WithShards(3))
	addr, secret := tcpWorkerHost(t)
	combos := []struct {
		name string
		opts []aimes.Option
	}{
		{"stdio/binary", []aimes.Option{aimes.WithShards(3), aimes.WithBackend(aimes.BackendWorker), aimes.WithWireCodec(aimes.CodecBinary)}},
		{"tcp/binary", []aimes.Option{aimes.WithShards(3), tcpWorkers(addr, secret), aimes.WithWireCodec(aimes.CodecBinary)}},
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			worker := runParityScenario(t, combo.opts...)
			if len(local) != len(worker) {
				t.Fatalf("local ran %d jobs, worker %d", len(local), len(worker))
			}
			for i := range local {
				if local[i].Namespace != worker[i].Namespace {
					t.Errorf("job %d: namespace %q (local) vs %q (worker)", i+1, local[i].Namespace, worker[i].Namespace)
				}
				if local[i].Shard != worker[i].Shard {
					t.Errorf("job %d: shard %d (local) vs %d (worker)", i+1, local[i].Shard, worker[i].Shard)
				}
				if !reflect.DeepEqual(local[i].Report, worker[i].Report) {
					t.Errorf("job %d: reports diverge across backends:\nlocal:  %+v\nworker: %+v",
						i+1, *local[i].Report, *worker[i].Report)
				}
			}
		})
	}
}

// TestWireCodecValidation covers the codec option's refusal path: the wire
// speaks only the binary codec, so any other name, "json" included, is
// rejected at NewEnv before anything spawns, naming the one codec there is,
// while "" and CodecBinary are accepted.
func TestWireCodecValidation(t *testing.T) {
	for _, name := range []string{"json", "yaml"} {
		if _, err := aimes.NewEnv(aimes.WithShards(1), aimes.WithWireCodec(name)); err == nil {
			t.Fatalf("wire codec %q accepted", name)
		} else if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), aimes.CodecBinary) {
			t.Fatalf("codec %q error does not name the codec and the supported one: %v", name, err)
		}
	}
	for _, name := range []string{"", aimes.CodecBinary} {
		env, err := aimes.NewEnv(aimes.WithShards(1), aimes.WithWireCodec(name))
		if err != nil {
			t.Fatalf("wire codec %q refused: %v", name, err)
		}
		env.Close()
	}
	// Secretless TCP config must fail fast and say what to set.
	t.Setenv("AIMES_WORKER_SECRET", "")
	if _, err := aimes.NewEnv(aimes.WithShards(1), tcpWorkers("127.0.0.1:1", "")); err == nil {
		t.Fatal("TCP worker config without a secret accepted")
	} else if !strings.Contains(err.Error(), "AIMES_WORKER_SECRET") {
		t.Fatalf("secretless error not actionable: %v", err)
	}
}

// TestTCPWorkerCrashFailsOnlyItsShard is the crash-containment contract on
// the TCP transport: a severed connection (no process watcher, death is
// in-band) still fails exactly the dead shard's jobs, descriptively.
func TestTCPWorkerCrashFailsOnlyItsShard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TCP worker host")
	}
	addr, secret := tcpWorkerHost(t)
	env, err := aimes.NewEnv(aimes.WithSeed(99), aimes.WithShards(2), tcpWorkers(addr, secret))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	submit := func(shard, seed int) *aimes.Job {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	doomed := submit(0, 11)
	healthy := submit(1, 22)
	if err := env.KillWorker(0); err != nil {
		t.Fatalf("KillWorker: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := doomed.Wait(ctx); err == nil {
		t.Fatal("job on the killed shard completed without error")
	} else if !strings.Contains(err.Error(), "s0") {
		t.Fatalf("crash error does not name the shard: %v", err)
	}
	r, err := healthy.Wait(ctx)
	if err != nil {
		t.Fatalf("job on the surviving shard: %v", err)
	}
	if r.UnitsDone != 16 {
		t.Fatalf("surviving job finished %d units, want 16", r.UnitsDone)
	}
}

// TestWorkerCrashFailsOnlyItsShard kills one worker process mid-flight and
// checks the containment contract: the dead shard's job fails with a
// descriptive error (no hang), the other shard's job completes untouched.
func TestWorkerCrashFailsOnlyItsShard(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	env, err := aimes.NewEnv(aimes.WithSeed(99), aimes.WithShards(2), aimes.WithBackend(aimes.BackendWorker))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	submit := func(shard, seed int) *aimes.Job {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), int64(seed))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	doomed := submit(0, 11)
	healthy := submit(1, 22)

	if err := env.KillWorker(0); err != nil {
		t.Fatalf("KillWorker: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := doomed.Wait(ctx); err == nil {
		t.Fatal("job on the killed shard completed without error")
	} else if !strings.Contains(err.Error(), "s0") {
		t.Fatalf("crash error does not name the shard: %v", err)
	}
	if got := doomed.State(); got != aimes.JobFailed {
		t.Fatalf("doomed job state %v, want failed", got)
	}
	r, err := healthy.Wait(ctx)
	if err != nil {
		t.Fatalf("job on the surviving shard: %v", err)
	}
	if r.UnitsDone != 16 {
		t.Fatalf("surviving job finished %d units, want 16", r.UnitsDone)
	}
	// Killing the local side of the story must be rejected cleanly.
	lenv, err := aimes.NewEnv(aimes.WithSeed(1), aimes.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := lenv.KillWorker(0); err == nil {
		t.Fatal("KillWorker on a local shard did not error")
	}
}

// TestWorkerBackendValidation covers the option surface: worker + real time
// is rejected, unknown backends are rejected, and a worker environment
// still validates workloads without crossing the seam.
func TestWorkerBackendValidation(t *testing.T) {
	if _, err := aimes.NewEnv(aimes.WithShards(2), aimes.WithBackend(aimes.BackendWorker), aimes.WithRealTime()); err == nil {
		t.Fatal("worker backend + WithRealTime was not rejected")
	}
	if _, err := aimes.NewEnv(aimes.WithBackend("fancy")); err == nil {
		t.Fatal("unknown backend was not rejected")
	}
	env, err := aimes.NewEnv(aimes.WithSeed(5), aimes.WithShards(1), aimes.WithBackend(aimes.BackendWorker))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if env.Backend() != aimes.BackendWorker {
		t.Fatalf("backend %q, want worker", env.Backend())
	}
	if err := env.Validate(nil, aimes.StrategyConfig{}); err == nil {
		t.Fatal("nil workload validated")
	}
	if got := len(env.Resources()); got == 0 {
		t.Fatal("worker environment reports no resources")
	}
	if env.Bundle() == nil {
		t.Fatal("worker environment has no mirror bundle")
	}
	if env.ShardBundle(0) != nil {
		t.Fatal("worker shard exposed an in-process bundle")
	}
	// Derive crosses the wire to the worker's live bundle.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := env.Derive(w, aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pilots != 2 || len(s.Resources) != 2 {
		t.Fatalf("worker Derive returned %+v", s)
	}
}

// TestWorkerBackendWithStealing routes the work-stealing machinery through
// the worker transport: a sealed worker shard admits queued jobs from
// completions observed over the wire (the path where a stale step-response
// drain verdict could fail a just-admitted job), and a migratable job's
// two-phase handoff lands on — and enacts against — a different worker
// process.
func TestWorkerBackendWithStealing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	env, err := aimes.NewEnv(aimes.WithSeed(515), aimes.WithShards(2), aimes.WithBackend(aimes.BackendWorker), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 1}
	// Twelve pinned, non-migratable tenants on worker shard 0: the seal
	// keeps the window at 4, so eight jobs queue and must be admitted one
	// by one as completions come back over the wire.
	var jobs []*aimes.Job
	for i := 0; i < 12; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), int64(3000+i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// A migratable straggler behind the full window: nothing is pumping
	// yet and worker shard 1 is empty, so its waiter's first iteration
	// must hand it off through the transport.
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(4, aimes.UniformDuration()), 3999)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := env.Submit(context.Background(), w, aimes.JobConfig{
		StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: 0, Migrate: aimes.MigrateAllow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if probe.State() != aimes.JobQueued {
		t.Fatalf("probe state %v, want queued", probe.State())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	if _, err := probe.Wait(ctx); err != nil {
		t.Fatalf("probe: %v", err)
	}
	cancel()
	if !probe.Migrated() || probe.Shard() != 1 {
		t.Fatalf("probe migrated=%v shard=%d, want a handoff to worker shard 1", probe.Migrated(), probe.Shard())
	}
	if got := env.StealStats().Migrations; got < 1 {
		t.Fatalf("migrations %d, want at least the probe's handoff", got)
	}
	for i, r := range waitAllDeadline(t, jobs, 120*time.Second) {
		if r.UnitsDone != 4 {
			t.Fatalf("job %d finished %d units, want 4", i, r.UnitsDone)
		}
	}
}

// TestSealedShardKeepsConstantWindow pins a non-migratable tenant (sealing
// its shard) and floods it with tiny jobs: the shard keeps at most the
// constant window of 4 enacted and queues the rest, and the window
// telemetry reports that constant.
func TestSealedShardKeepsConstantWindow(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(217), aimes.WithShards(2), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 1}
	const n = 40
	var jobs []*aimes.Job
	for i := 0; i < n; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(1, aimes.ConstantSpec(1)), int64(500+i))
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: cfg,
			Placement:      aimes.PlacePinned, Shard: 0, // pinned + MigrateAuto seals shard 0
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	l := env.Loads()[0]
	if l.Window != 4 || l.Running != 4 || l.Queued != n-4 {
		t.Fatalf("sealed shard 0 after %d submissions: window %d, running %d, queued %d; want 4, 4, %d",
			n, l.Window, l.Running, l.Queued, n-4)
	}
	waitAllDeadline(t, jobs, 120*time.Second)
	if got := env.StealStats().PeakWindows[0]; got != 4 {
		t.Fatalf("sealed shard 0 peak window %d, want the constant 4", got)
	}
}

// shardOfReport recovers the shard index a stage executed on from its
// pilot-wait IDs ("pilot.<resource>.s<k>-j<m>-<i>").
func shardOfReport(t *testing.T, r *aimes.Report) int {
	t.Helper()
	for id := range r.PilotWaits {
		seg := id[strings.LastIndex(id, ".")+1:]
		if !strings.HasPrefix(seg, "s") {
			continue
		}
		rest := seg[1:]
		if cut := strings.IndexByte(rest, '-'); cut > 0 {
			k, err := strconv.Atoi(rest[:cut])
			if err == nil {
				return k
			}
		}
	}
	t.Fatalf("no shard-qualified pilot ID in report waits %v", r.PilotWaits)
	return -1
}

// TestStagedPlacementFollowsLoad forces a staged execution's first stage to
// migrate off an overloaded, sealed shard and checks the steal-aware
// placement contract: the run completes, the migration happened, later
// stages run off the overloaded shard, and every stage's shard absorbed the
// wait feedback of all earlier stages (the coherence regression).
func TestStagedPlacementFollowsLoad(t *testing.T) {
	const nShards = 3
	env, err := aimes.NewEnv(aimes.WithSeed(4242), aimes.WithShards(nShards), aimes.WithWorkStealing())
	if err != nil {
		t.Fatal(err)
	}
	// Overload shard 0 with pinned, non-migratable tenants (sealing it):
	// the admission window fills and a deep queue forms that nobody pumps.
	noiseCfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	for i := 0; i < 8; i++ {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(32, aimes.UniformDuration()), int64(9000+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.Submit(context.Background(), w, aimes.JobConfig{
			StrategyConfig: noiseCfg, Placement: aimes.PlacePinned, Shard: 0,
		}); err != nil {
			t.Fatal(err)
		}
	}
	app := aimes.AppSpec{
		Name: "staged",
		Stages: []aimes.StageSpec{
			{Name: "a", Tasks: 6, InputBytes: aimes.ConstantSpec(1 << 20), DurationS: aimes.ConstantSpec(120), OutputBytes: aimes.ConstantSpec(1 << 20)},
			{Name: "b", Tasks: 6, Inputs: aimes.MapOneToOne, DurationS: aimes.ConstantSpec(90), OutputBytes: aimes.ConstantSpec(1 << 10)},
		},
	}
	w, err := aimes.GenerateWorkload(app, 77)
	if err != nil {
		t.Fatal(err)
	}
	// The first round-robin submission goes to shard 0 — straight into the
	// overload, so stage "a" starts queued and its waiter must migrate it.
	total, stages, err := env.RunStaged(w, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("got %d stage reports, want 2", len(stages))
	}
	if total.UnitsDone != 12 {
		t.Fatalf("staged run finished %d units, want 12", total.UnitsDone)
	}
	if got := env.StealStats().Migrations; got < 1 {
		t.Fatalf("first stage never migrated off the overloaded shard (migrations %d)", got)
	}
	prevWaits := 0
	for i, r := range stages {
		k := shardOfReport(t, r)
		if k == 0 {
			t.Fatalf("stage %d executed on the overloaded sealed shard 0", i)
		}
		// Coherence: the shard a stage ran on must hold the wait history of
		// every earlier stage (replayed before its derivation, or on
		// landing), so staged feedback survives the hop.
		b := env.ShardBundle(k)
		history := 0
		for _, name := range env.Resources() {
			if res := b.Resource(name); res != nil {
				history += res.HistoryLen()
			}
		}
		if history < prevWaits {
			t.Fatalf("stage %d shard s%d absorbed %d wait observations, want at least %d (feedback incoherent across the hop)",
				i, k, history, prevWaits)
		}
		prevWaits += len(r.PilotWaits)
	}
}

// TestAggregateMergeAndSubscribe checks the ordered aggregate-trace drain
// (merged by per-shard virtual time) and the bounded live subscription.
func TestAggregateMergeAndSubscribe(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(606), aimes.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	sub := env.Subscribe(1 << 14)
	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C() {
			received++
		}
	}()
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	var jobs []*aimes.Job
	for k := 0; k < 2; k++ {
		for i := 0; i < 2; i++ {
			w, err := aimes.GenerateWorkload(aimes.BagOfTasks(6, aimes.UniformDuration()), int64(10*k+i))
			if err != nil {
				t.Fatal(err)
			}
			j, err := env.Submit(context.Background(), w, aimes.JobConfig{
				StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	waitAllDeadline(t, jobs, 60*time.Second)

	rec := env.Recorder()
	records := rec.Records()
	if len(records) == 0 {
		t.Fatal("aggregate drained no records")
	}
	for i := 1; i < len(records); i++ {
		if records[i].Time < records[i-1].Time {
			t.Fatalf("aggregate record %d out of order: %v after %v (merge by virtual time broken)",
				i, records[i].Time, records[i-1].Time)
		}
	}
	if n := rec.Len(); env.Recorder().Len() != n {
		t.Fatal("second drain duplicated records")
	}
	sub.Close()
	<-done
	if received+int(sub.Dropped()) < len(records) {
		t.Fatalf("subscription saw %d records (+%d dropped), aggregate has %d", received, sub.Dropped(), len(records))
	}
	sub.Close() // idempotent
}

// TestRecorderConcurrentDrain drains the aggregate trace from another
// goroutine while pinned jobs run on two shards, then once more after they
// finish: the aggregate must hold every shard record exactly once — no
// record lost between drains, none merged twice.
func TestRecorderConcurrentDrain(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(707), aimes.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := aimes.StrategyConfig{Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2}
	var jobs []*aimes.Job
	for k := 0; k < 2; k++ {
		for i := 0; i < 4; i++ {
			w, err := aimes.GenerateWorkload(aimes.BagOfTasks(64, aimes.UniformDuration()), int64(10*k+i))
			if err != nil {
				t.Fatal(err)
			}
			j, err := env.Submit(context.Background(), w, aimes.JobConfig{
				StrategyConfig: cfg, Placement: aimes.PlacePinned, Shard: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	stop := make(chan struct{})
	started := make(chan struct{})
	drains := make(chan int)
	go func() {
		n := 0
		for {
			env.Recorder()
			if n++; n == 1 {
				close(started)
			}
			select {
			case <-stop:
				drains <- n
				return
			default:
			}
		}
	}()
	<-started
	waitAllDeadline(t, jobs, 60*time.Second)
	close(stop)
	t.Logf("%d drains while jobs ran", <-drains)

	rec := env.Recorder()
	want := make(map[aimes.TraceRecord]int)
	total := 0
	for k := 0; k < env.Shards(); k++ {
		sr := env.ShardRecorder(k)
		total += sr.Len()
		for _, r := range sr.Records() {
			want[r]++
		}
	}
	if rec.Len() != total {
		t.Fatalf("aggregate holds %d records, shards %d", rec.Len(), total)
	}
	for _, r := range rec.Records() {
		want[r]--
	}
	for r, n := range want {
		if n != 0 {
			t.Fatalf("record %+v: aggregate count off by %d", r, -n)
		}
	}
}
