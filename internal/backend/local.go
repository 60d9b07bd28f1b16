package backend

import (
	"fmt"
	"math/rand"

	"aimes/internal/bundle"
	"aimes/internal/core"
	"aimes/internal/netsim"
	"aimes/internal/pilot"
	"aimes/internal/saga"
	"aimes/internal/shard"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// Local is the in-process execution backend: one complete simulation stack —
// engine, testbed, SAGA session, bundle, execution manager — behind the
// Backend seam. It reproduces the pre-seam shard trajectories bit for bit:
// the same construction order, the same single rand.Rand feeding derivation
// and enactment, the same namespace sequence, so a single-shard environment
// on the local backend is identical to every release before the seam
// existed. It also hosts the worker process's side of the wire protocol
// (Serve wraps a Local), which is what makes local and worker runs of the
// same pinned workload report identically.
type Local struct {
	id       int
	eng      sim.Engine
	stepper  sim.Stepper
	batch    sim.BatchStepper
	quiescer sim.Quiescer
	testbed  *site.Testbed
	bndl     *bundle.Bundle
	mgr      *core.Manager
	rng      *rand.Rand
	sink     Sink

	// execs holds every live job's execution, keyed by descriptor key; its
	// sink is where injected chaos (chaos.go) logs applied faults.
	// surgeSeq numbers emergent surge jobs; sever, when set by a worker
	// serve loop, cuts the hosting transport for the kill-worker action.
	jobSeq   int
	execs    map[int]*core.Execution
	surgeSeq int
	sever    func()
}

var _ Backend = (*Local)(nil)

// NewLocal builds one shard stack. Shard construction order (testbed, SAGA
// adaptors, bundle, manager RNG) is load-bearing for determinism — change it
// and every golden trajectory moves. A virtual-time stack on a testbed with
// emergent queues returns already warmed by site.Warmup.
func NewLocal(cfg Config, sink Sink) (*Local, error) {
	var eng sim.Engine
	if cfg.RealTime {
		eng = sim.NewRealTime()
	} else {
		eng = sim.NewSim()
	}
	configs := cfg.Sites
	if configs == nil {
		configs = site.DefaultTestbed()
	}
	tb, err := site.NewTestbed(eng, configs, sim.NewRNG(cfg.Seed))
	if err != nil {
		return nil, err
	}
	sess := saga.NewSession()
	for _, s := range tb.Sites() {
		sess.Register(saga.NewBatchAdaptor(eng, s))
	}
	b := bundle.New(tb.Sites())
	links := func(resource string) *netsim.Link {
		s := tb.Site(resource)
		if s == nil {
			return nil
		}
		return s.Link()
	}
	pcfg := pilot.DefaultConfig()
	if cfg.Pilot != nil {
		pcfg = *cfg.Pilot
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x414D4553)) // "AMES"
	l := &Local{
		id: cfg.Shard, eng: eng, testbed: tb, bndl: b,
		mgr:   core.NewManager(eng, b, sess, links, pcfg, nil, rng),
		rng:   rng,
		sink:  sink,
		execs: make(map[int]*core.Execution),
	}
	if st, ok := eng.(sim.Stepper); ok {
		l.stepper = st
	}
	if bs, ok := eng.(sim.BatchStepper); ok {
		l.batch = bs
	}
	if q, ok := eng.(sim.Quiescer); ok {
		l.quiescer = q
	}
	// Emergent queues start empty: run their background load to steady
	// state before anything is enacted, so every shard built from the same
	// inputs (in process or in a worker) starts from the same warmed clock.
	// Virtual time only; a wall-clock engine cannot skip ahead.
	if s, ok := eng.(*sim.Sim); ok {
		if w := site.Warmup(configs); w > 0 {
			s.RunUntil(sim.Time(w))
		}
	}
	return l, nil
}

// Bundle exposes the shard's resource bundle (in-process callers only; a
// worker shard's bundle lives in the worker).
func (l *Local) Bundle() *bundle.Bundle { return l.bndl }

// Testbed exposes the shard's testbed.
func (l *Local) Testbed() *site.Testbed { return l.testbed }

// Engine exposes the shard's engine (bundle monitors attach here).
func (l *Local) Engine() sim.Engine { return l.eng }

// EngineSyncer returns the engine's Sync serialization when the engine runs
// callbacks concurrently (wall-clock), nil for single-driver virtual time.
func (l *Local) EngineSyncer() sim.Syncer {
	if s, ok := l.eng.(sim.Syncer); ok {
		return s
	}
	return nil
}

// Enact implements Backend. The internal order — resolve, namespace,
// MIGRATED record, prepare, enact, sequence bump — mirrors the pre-seam
// enactment exactly. The job keeps no trace of its own: every record goes
// straight to the shard's sink under the job's key.
func (l *Local) Enact(d *Descriptor) (*Enacted, error) {
	s, err := l.mgr.Resolve(&d.Descriptor)
	if err != nil {
		return nil, err
	}
	ns := shard.Namespace(l.id, l.jobSeq+1)
	key := d.Key
	rec := jobSink{sink: l.sink, key: key, ns: ns}
	if d.MigratedFrom >= 0 {
		rec.Record(l.eng.Now(), "em", trace.StateMigrated, fmt.Sprintf("from s%d", d.MigratedFrom))
	}

	opts := core.ExecOptions{Recorder: rec, Namespace: ns}
	var exec *core.Execution
	if d.Adaptive != nil {
		exec, err = l.mgr.ExecuteAdaptiveWith(d.Workload, s, *d.Adaptive, opts)
	} else {
		// The prepared→enacted crossing stays explicit: right up to Enact
		// the job held no engine state, which is why queued jobs can
		// migrate between backends.
		exec, err = l.mgr.PrepareWith(d.Workload, s, opts)
		if err == nil {
			err = exec.Enact()
		}
	}
	if err != nil {
		return nil, err
	}
	l.jobSeq++
	l.execs[key] = exec
	exec.OnComplete(func(r *core.Report) {
		delete(l.execs, key)
		l.sink.JobDone(key, r)
	})
	return &Enacted{Namespace: ns, Strategy: s}, nil
}

// jobSink reports one job's trace records to its shard's sink.
type jobSink struct {
	sink Sink
	key  int
	ns   string
}

func (j jobSink) Record(t sim.Time, entity, state, detail string) {
	j.sink.JobTrace(j.key, j.ns, trace.Record{Time: t, Entity: entity, State: state, Detail: detail})
}

// Step implements Backend.
func (l *Local) Step(max int) (int, bool, error) {
	if l.batch != nil {
		fired := l.batch.StepN(max)
		return fired, fired < max, nil
	}
	if l.stepper == nil {
		return 0, false, fmt.Errorf("backend: engine is not steppable")
	}
	fired := 0
	for fired < max {
		if !l.stepper.Step() {
			return fired, true, nil
		}
		fired++
	}
	return fired, false, nil
}

// Cancel implements Backend.
func (l *Local) Cancel(key int, reason string) error {
	if exec, ok := l.execs[key]; ok {
		exec.Cancel(reason)
	}
	return nil
}

// Incomplete implements Backend.
func (l *Local) Incomplete(key int) error {
	exec, ok := l.execs[key]
	if !ok {
		return fmt.Errorf("backend: no enacted execution for job %d", key)
	}
	return exec.IncompleteError()
}

// Feedback implements Backend.
func (l *Local) Feedback(r *core.Report) error {
	l.mgr.FeedbackWaits(r)
	return nil
}

// Derive implements Backend.
func (l *Local) Derive(w *skeleton.Workload, cfg core.StrategyConfig) (core.Strategy, error) {
	return core.Derive(w, l.bndl, cfg, l.rng)
}

// AppSeed implements Backend.
func (l *Local) AppSeed() (int64, error) { return l.rng.Int63(), nil }

// Now implements Backend.
func (l *Local) Now() (sim.Time, error) { return l.eng.Now(), nil }

// Steppable implements Backend.
func (l *Local) Steppable() bool { return l.stepper != nil }

// Runnable implements Quiescent when the engine can answer without firing.
func (l *Local) Runnable() bool {
	if l.quiescer == nil {
		return true
	}
	return l.quiescer.Runnable()
}

// Close implements Backend (a no-op: the stack is garbage).
func (l *Local) Close() error { return nil }
