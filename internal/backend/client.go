package backend

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"aimes/internal/core"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
)

// Worker is the out-of-process execution backend: one shard hosted behind a
// Transport (a spawned child process over stdio, or a TCP worker host on
// another machine), with the Backend interface proxied across a framed
// binary session. Every response's events are replayed into the
// sink before the originating call returns, so the environment observes the
// same callback ordering as with Local.
//
// A dead worker is surfaced, never waited on: an in-flight call fails when
// the connection breaks, every later call fails fast, and the death
// callback passed at connect time runs once so the environment can fail the
// shard's jobs instead of hanging their waiters.
type Worker struct {
	shard int
	s     *session
	sink  Sink

	now     atomic.Int64 // engine time at the last response, ns
	drained atomic.Bool  // conservative Runnable cache: true only right after a drained Step
}

var (
	_ Backend   = (*Worker)(nil)
	_ Quiescent = (*Worker)(nil)
)

// WorkerOptions tunes the session Connect builds; the zero value is the
// production default.
type WorkerOptions struct {
	// Codec names the wire codec. The wire speaks only CodecBinary, so
	// the accepted values are "" and CodecBinary (equivalent); Connect
	// refuses any other name.
	Codec string
	// MaxFrame overrides the per-frame size limit (0 means
	// DefaultMaxFrame). Both sides of a connection must agree.
	MaxFrame int
}

// Connect dials a shard worker over tr, performs the init exchange (in the
// binary codec, like every frame), and returns the connected backend.
// onDeath, when non-nil, runs exactly once if the worker dies before Close —
// whether the transport observes it out of band (a child process exiting)
// or a call finds the connection broken.
func Connect(tr Transport, opt WorkerOptions, cfg Config, sink Sink, onDeath func(error)) (*Worker, error) {
	if opt.Codec != "" && opt.Codec != CodecBinary {
		return nil, fmt.Errorf("backend: unknown wire codec %q (the worker wire speaks only %q)", opt.Codec, CodecBinary)
	}
	ic, err := configToWire(cfg)
	if err != nil {
		return nil, err
	}
	s := newSession(cfg.Shard, opt.MaxFrame, onDeath)
	conn, err := tr.Dial(cfg.Shard, s.peerDied)
	if err != nil {
		return nil, err
	}
	s.attach(conn)
	w := &Worker{shard: cfg.Shard, s: s, sink: sink}
	if _, err := w.callTimeout(&request{Op: opInit, Init: ic}, spawnTimeout); err != nil {
		s.closing.Store(true) // suppress the death callback for a spawn that never worked
		_ = conn.Kill()       // also unblocks a still-pending init read
		return nil, fmt.Errorf("backend: initializing worker for shard %d: %w", cfg.Shard, err)
	}
	return w, nil
}

// call performs one request/response exchange and then dispatches the
// response's events into the sink — after the session releases the wire
// lock, so a sink callback may legally issue a nested call (e.g. a
// completion that admits and enacts the next queued job). An
// operation-level error (Err in the response) is returned alongside the
// response; a transport error has already marked the session dead.
func (w *Worker) call(req *request) (*response, error) {
	var resp response
	if err := w.s.exchange(req, &resp); err != nil {
		return nil, err
	}
	w.now.Store(resp.Now)
	if req.Op == opStep {
		// Record the drain verdict BEFORE dispatching events: a dispatched
		// completion can admit and enact a queued job (a nested call), which
		// schedules fresh worker events and stores drained=false — and that
		// newer verdict must win over this response's. Step reads the cache,
		// not the response, for exactly this reason.
		w.drained.Store(resp.Drained)
	}
	for i := range resp.Events {
		ev := &resp.Events[i]
		switch ev.Kind {
		case eventTrace:
			if ev.Rec != nil {
				w.sink.JobTrace(ev.Key, ev.NS, ev.Rec.Record())
			}
		case eventDone:
			w.sink.JobDone(ev.Key, ev.Report)
		}
	}
	if resp.Err != "" {
		return &resp, errors.New(resp.Err)
	}
	return &resp, nil
}

// spawnTimeout bounds the init exchange: a worker command that is not
// actually a worker (a wrapper script that hangs, a non-protocol binary
// reading stdin) must fail the spawn, not hang NewEnv forever.
const spawnTimeout = 30 * time.Second

// closeTimeout bounds the orderly-close exchange before the kill fallback.
const closeTimeout = 5 * time.Second

// callTimeout is call with a deadline for exchanges against a worker that
// may not be speaking the protocol at all (init) or may be wedged (close).
// On timeout the pending read stays blocked until the caller kills the
// connection, which unblocks it and lets the call goroutine exit.
func (w *Worker) callTimeout(req *request, d time.Duration) (*response, error) {
	type result struct {
		resp *response
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := w.call(req)
		ch <- result{resp, err}
	}()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-time.After(d):
		return nil, fmt.Errorf("worker for shard %d did not answer within %v", w.shard, d)
	}
}

// Enact implements Backend.
func (w *Worker) Enact(d *Descriptor) (*Enacted, error) {
	w.drained.Store(false)
	resp, err := w.call(&request{Op: opEnact, Desc: d})
	if err != nil {
		return nil, err
	}
	if resp.Enacted == nil {
		return nil, fmt.Errorf("backend: worker enacted without a result")
	}
	return resp.Enacted, nil
}

// Step implements Backend. The drain verdict comes from the cache rather
// than the response: event dispatch inside the call can enact a freshly
// admitted job (scheduling new worker events), and the response's verdict
// predates that — returning it would let a pump judge a runnable engine
// drained and fail a just-enacted job as incomplete.
func (w *Worker) Step(max int) (int, bool, error) {
	resp, err := w.call(&request{Op: opStep, Max: max})
	if err != nil {
		return 0, false, err
	}
	return resp.Fired, w.drained.Load(), nil
}

// Cancel implements Backend.
// Inject implements Injector: the chaos event crosses the wire and is
// scheduled on the worker's engine. The injection schedules future engine
// work, so the drained cache is invalidated like any other mutation.
func (w *Worker) Inject(ev ChaosEvent) error {
	w.drained.Store(false)
	_, err := w.call(&request{Op: opInject, Chaos: &ev})
	return err
}

func (w *Worker) Cancel(key int, reason string) error {
	w.drained.Store(false)
	_, err := w.call(&request{Op: opCancel, Key: key, Reason: reason})
	return err
}

// Incomplete implements Backend.
func (w *Worker) Incomplete(key int) error {
	resp, err := w.call(&request{Op: opIncomplete, Key: key})
	if err != nil {
		return err
	}
	if resp.Diag == "" {
		return fmt.Errorf("backend: worker reported no diagnostic for job %d", key)
	}
	return errors.New(resp.Diag)
}

// Feedback implements Backend.
func (w *Worker) Feedback(r *core.Report) error {
	_, err := w.call(&request{Op: opFeedback, Report: r})
	return err
}

// Derive implements Backend.
func (w *Worker) Derive(wl *skeleton.Workload, cfg core.StrategyConfig) (core.Strategy, error) {
	resp, err := w.call(&request{Op: opDerive, Workload: wl, Config: &cfg})
	if err != nil {
		return core.Strategy{}, err
	}
	if resp.Strategy == nil {
		return core.Strategy{}, fmt.Errorf("backend: worker derived without a strategy")
	}
	return *resp.Strategy, nil
}

// AppSeed implements Backend.
func (w *Worker) AppSeed() (int64, error) {
	resp, err := w.call(&request{Op: opAppSeed})
	if err != nil {
		return 0, err
	}
	return resp.Seed, nil
}

// Now implements Backend: the engine time at the last response. Exact, not
// stale — a worker's engine only advances while serving a call.
func (w *Worker) Now() (sim.Time, error) { return sim.Time(w.now.Load()), nil }

// Steppable implements Backend (the worker protocol is virtual-time only).
func (w *Worker) Steppable() bool { return true }

// Runnable implements Quiescent from cached drain state: false only when
// the last wire operation was a Step that drained the engine, so a false
// verdict is always authoritative while true merely means "ask".
func (w *Worker) Runnable() bool { return !w.drained.Load() }

// Close implements Backend: an orderly shutdown (close frame, bounded
// wait), then the transport's teardown — which for a child process reaps
// it, killing a lingerer. A transport failure here is not an error — the
// worker being already dead was surfaced when it happened (death callback,
// per-job errors), and the teardown guarantees the peer is reclaimed
// either way.
func (w *Worker) Close() error {
	w.s.closing.Store(true)
	_, _ = w.callTimeout(&request{Op: opClose}, closeTimeout)
	_ = w.s.conn.CloseWrite()
	return w.s.conn.Close()
}

// Kill severs the worker's connection immediately — the chaos hook behind
// Environment.KillWorker and the crash tests. A killed child process trips
// the transport watcher and the death callback runs exactly as for a
// spontaneous crash; a killed TCP connection surfaces on the shard's next
// wire operation, which notifies the same callback in-band.
func (w *Worker) Kill() error { return w.s.conn.Kill() }

// Dead reports whether the worker's session has failed. Once true it stays
// true — a dead session never recovers; the fleet layer replaces the whole
// Worker. The admission and migration paths consult it so queued descriptors
// are parked for replay instead of being enacted into a broken wire.
func (w *Worker) Dead() bool { return w.s.deadErr() != nil }

// Ping performs one liveness round trip over the session — the health
// prober's probe. It bypasses call: a ping response never carries events
// (the host answers it without touching the engine), so there is nothing to
// dispatch, and the prober goroutine must not replay events outside the
// shard's serialization. Concurrency is safe — the session serializes the
// wire — and a broken connection surfaces here exactly as on any other
// exchange: the session goes dead and the death callback fires once. Any
// answer proves liveness, so an Err response is not a ping failure.
func (w *Worker) Ping() error {
	var resp response
	if err := w.s.exchange(&request{Op: opPing}, &resp); err != nil {
		return err
	}
	return nil
}
