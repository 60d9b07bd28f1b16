package core

import (
	"fmt"
	"math/rand"
	"time"

	"aimes/internal/bundle"
	"aimes/internal/netsim"
	"aimes/internal/pilot"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// Manager is the Execution Manager: it gathers application information via
// the skeleton API and resource information via the bundle API, derives an
// execution strategy, and enacts it through the pilot layer (§III-D,
// Figure 1 steps 1–6). One manager serves many executions, sequentially or
// concurrently on a shared engine: each execution gets its own pilot system
// and may get its own trace sink and pilot-ID namespace (ExecOptions),
// so tenants sharing the testbed stay observably separate.
type Manager struct {
	eng     sim.Engine
	bundle  *bundle.Bundle
	session *saga.Session
	links   pilot.LinkResolver
	cfg     pilot.Config
	rec     *trace.Recorder
	rng     *rand.Rand
}

// NewManager wires an execution manager. The recorder may be nil, in which
// case a fresh one is created per execution.
func NewManager(eng sim.Engine, b *bundle.Bundle, session *saga.Session,
	links pilot.LinkResolver, cfg pilot.Config, rec *trace.Recorder, rng *rand.Rand) *Manager {
	if rec == nil {
		rec = trace.NewRecorder()
	}
	return &Manager{eng: eng, bundle: b, session: session, links: links,
		cfg: cfg, rec: rec, rng: rng}
}

// Recorder exposes the shared trace recorder.
func (m *Manager) Recorder() *trace.Recorder { return m.rec }

// Engine exposes the engine the manager enacts on.
func (m *Manager) Engine() sim.Engine { return m.eng }

// Bundle exposes the resource bundle the manager derives against.
func (m *Manager) Bundle() *bundle.Bundle { return m.bundle }

// ExecOptions scopes one execution inside a shared environment. The zero
// value reproduces the classic single-tenant behavior: the manager's shared
// recorder and un-namespaced pilot IDs.
type ExecOptions struct {
	// Recorder receives this execution's trace records as they happen. Nil
	// uses the manager's shared recorder. Multi-tenant callers pass a
	// per-job sink, e.g. one forwarding to an aggregate trace under the
	// job's key, so event streams never mix tenants. Reports never read it:
	// Tx and Ts come from the unit manager's spans.
	Recorder trace.Sink
	// Namespace scopes pilot IDs, e.g. "s0-j3" → "pilot.stampede.s0-j3-1".
	Namespace string
}

// Execution is one workload's enactment handle. It is created in a prepared
// state (PrepareWith) that holds no engine state at all, and crosses into
// the enacted state exactly once (Enact) when pilots are submitted and
// events scheduled; Enacted answers which side of that line it is on — the
// query cross-shard migration uses to decide whether a job may still be
// handed to a different shard's manager.
type Execution struct {
	m           *Manager
	rec         trace.Sink
	ns          string
	workload    *skeleton.Workload
	strategy    Strategy
	enacted     bool
	pm          *pilot.PilotManager
	um          *pilot.UnitManager
	started     sim.Time
	ended       sim.Time
	done        bool
	canceled    bool
	extraPilots int
	onDone      []func(*Report)
	report      *Report

	// Lost-pilot replanning (AdaptiveConfig.ReplaceLostPilots).
	watchForLoss  bool
	replaceBudget int
}

// Strategy returns the enacted strategy.
func (e *Execution) Strategy() Strategy { return e.strategy }

// Done reports whether the execution has completed.
func (e *Execution) Done() bool { return e.done }

// Canceled reports whether Cancel ended the execution.
func (e *Execution) Canceled() bool { return e.canceled }

// Report returns the final report, or nil while running.
func (e *Execution) Report() *Report { return e.report }

// Recorder returns the sink this execution reports to (the manager's shared
// recorder unless ExecOptions provided a per-execution sink).
func (e *Execution) Recorder() trace.Sink { return e.rec }

// OnComplete registers a callback fired once with the final report.
func (e *Execution) OnComplete(fn func(*Report)) {
	if e.done {
		fn(e.report)
		return
	}
	e.onDone = append(e.onDone, fn)
}

// Pilots returns the execution's pilots (initial and adaptation-added) in
// submission order; nil before enactment.
func (e *Execution) Pilots() []*pilot.Pilot {
	if e.pm == nil {
		return nil
	}
	return e.pm.Pilots()
}

// Units returns the execution's managed units in submission order; nil
// before enactment.
func (e *Execution) Units() []*pilot.Unit {
	if e.um == nil {
		return nil
	}
	return e.um.Units()
}

// PreemptPilot preempts one non-final pilot on the named resource, as when
// the resource manager reclaims the allocation mid-run. Units the pilot held
// return to the unit manager for rescheduling on surviving pilots (or a
// replacement, with ReplaceLostPilots). It reports whether a pilot was
// preempted.
func (e *Execution) PreemptPilot(resource, reason string) bool {
	for _, p := range e.Pilots() {
		if p.Resource() == resource && !p.State().Final() {
			e.pm.Preempt(p, reason)
			return true
		}
	}
	return false
}

// Enacted reports whether Enact ran: an enacted execution has submitted
// pilots and scheduled events, so its state is bound to this manager's
// engine. A prepared, never-enacted execution holds no engine state and can
// be discarded and re-prepared on another manager — the migration-safe half
// of the queued-vs-enacted distinction.
func (e *Execution) Enacted() bool { return e.enacted }

// Cancel aborts the execution: every non-final unit is canceled, all pilots
// are torn down, and the execution completes immediately with a report that
// accounts the canceled units. Canceling a prepared, never-enacted execution
// completes it directly with every unit accounted as canceled. Canceling a
// finished execution is a no-op. Must run under the engine's callback
// serialization (sim.Locked) when the engine is concurrent.
func (e *Execution) Cancel(reason string) {
	if e.done {
		return
	}
	e.canceled = true
	e.rec.Record(e.m.eng.Now(), "em", "CANCELED", reason)
	if !e.enacted {
		e.ended = e.m.eng.Now()
		e.done = true
		e.rec.Record(e.ended, "em", "DONE", "")
		e.report = CanceledReport(e.workload)
		e.report.Strategy = e.strategy
		for _, fn := range e.onDone {
			fn(e.report)
		}
		e.onDone = nil
		return
	}
	// Canceling the last unit fires the unit manager's completion callback,
	// which runs finish: pilot teardown and report assembly happen there.
	e.um.CancelAll()
}

// CanceledReport builds the report of a workload canceled before enactment:
// no time passed, nothing activated, and every unit accounts as canceled.
func CanceledReport(w *skeleton.Workload) *Report {
	return &Report{
		UnitsCanceled:   w.TotalTasks(),
		PilotWaits:      make(map[string]time.Duration),
		UnitsByResource: make(map[string]int),
	}
}

// Execute enacts a strategy for a workload: pilots are described and
// submitted in randomized order (step 4–5), units are scheduled onto them
// (step 6), outputs are staged back, and all pilots are canceled when the
// workload completes. It returns immediately; completion is observed via
// OnComplete or by running the engine (see ExecuteAndWait and WaitFor).
func (m *Manager) Execute(w *skeleton.Workload, s Strategy) (*Execution, error) {
	return m.ExecuteWith(w, s, ExecOptions{})
}

// ExecuteWith is Execute with per-execution scoping (recorder, namespace):
// the PrepareWith + Enact composition for callers that enact on the spot.
func (m *Manager) ExecuteWith(w *skeleton.Workload, s Strategy, opts ExecOptions) (*Execution, error) {
	e, err := m.PrepareWith(w, s, opts)
	if err != nil {
		return nil, err
	}
	if err := e.Enact(); err != nil {
		return nil, err
	}
	return e, nil
}

// PrepareWith validates a workload/strategy pair and returns a prepared
// Execution without enacting it: no pilots are submitted, nothing is
// scheduled on the engine, no randomness is drawn and nothing is recorded,
// so a prepared execution may still be discarded — and the workload
// re-prepared against a different manager — at zero cost. That queued-vs-
// enacted boundary (see Enacted) is what makes cross-shard job migration
// safe: only work that never touched an engine is handed off.
func (m *Manager) PrepareWith(w *skeleton.Workload, s Strategy, opts ExecOptions) (*Execution, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if w.TotalTasks() == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	rec := opts.Recorder
	if rec == nil {
		rec = m.rec
	}
	return &Execution{m: m, rec: rec, ns: opts.Namespace, workload: w, strategy: s}, nil
}

// Enact crosses a prepared execution into the enacted state: pilots are
// described and submitted in randomized order, units are scheduled onto
// them, and from here on the execution is bound to its manager's engine.
// Enacting twice is an error.
func (e *Execution) Enact() error {
	if e.enacted {
		return fmt.Errorf("core: execution already enacted")
	}
	m, s := e.m, e.strategy
	e.enacted = true
	e.started = m.eng.Now()
	e.rec.Record(m.eng.Now(), "em", "ENACTING", s.String())

	sys := pilot.NewSystem(m.eng, m.session, m.links, e.rec, m.cfg, m.rng)
	if e.ns != "" {
		sys.SetNamespace(e.ns)
	}
	e.pm = pilot.NewPilotManager(sys)
	e.um = pilot.NewUnitManager(sys, s.Scheduler.build())

	// Randomize pilot submission order to decorrelate from resource order,
	// as the paper's experiments did.
	order := make([]string, len(s.Resources))
	copy(order, s.Resources)
	if m.rng != nil {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, resource := range order {
		p, err := e.pm.Submit(pilot.PilotDescription{
			Resource: resource,
			Cores:    s.PilotCores,
			Walltime: s.PilotWalltime,
		})
		if err != nil {
			e.pm.CancelAll()
			return fmt.Errorf("core: submitting pilot to %s: %w", resource, err)
		}
		e.um.AddPilot(p)
	}

	descs := unitDescriptions(e.workload)
	e.um.OnCompletion(func() { e.finish() })
	if err := e.um.Submit(descs); err != nil {
		e.pm.CancelAll()
		return err
	}
	return nil
}

// finish cancels pilots, assembles the report and fires callbacks.
func (e *Execution) finish() {
	e.pm.CancelAll()
	e.ended = e.m.eng.Now()
	e.done = true
	e.rec.Record(e.ended, "em", "DONE", "")
	e.report = buildReport(e)
	for _, fn := range e.onDone {
		fn(e.report)
	}
	e.onDone = nil
}

// WaitFor is the manager's engine pump, the single drain path for blocking
// callers. On a steppable (virtual-time) engine it fires events until the
// execution completes — stepping rather than draining, so periodic
// components such as bundle monitors keep running without blocking
// completion. On a self-advancing engine (RealTime) it blocks until the
// completion callback fires. Multi-tenant façades layer their own fair,
// cancelable pump on top of Execute; WaitFor is the single-driver case.
func (m *Manager) WaitFor(e *Execution) (*Report, error) {
	if st, ok := m.eng.(sim.Stepper); ok {
		for !e.done && st.Step() {
		}
		if !e.done {
			return nil, e.IncompleteError()
		}
		return e.report, nil
	}
	done := make(chan struct{})
	sim.Locked(m.eng, func() {
		e.OnComplete(func(*Report) { close(done) })
	})
	<-done
	return e.report, nil
}

// IncompleteError describes an execution stuck after the engine drained:
// which pilot and unit states it wedged in, the context needed to diagnose
// a run that can no longer make progress.
func (e *Execution) IncompleteError() error {
	if !e.enacted {
		return fmt.Errorf("core: engine drained with the workload still queued, never enacted")
	}
	pilots := make(map[string]int)
	for _, p := range e.pm.Pilots() {
		pilots[p.State().String()]++
	}
	units := make(map[string]int)
	for _, u := range e.um.Units() {
		units[u.State().String()]++
	}
	return fmt.Errorf("core: engine drained but workload incomplete (pilots %v, units %v)", pilots, units)
}

// ExecuteAndWait is the synchronous convenience: enact the strategy, then
// pump the engine until the workload completes.
func (m *Manager) ExecuteAndWait(w *skeleton.Workload, s Strategy) (*Report, error) {
	e, err := m.Execute(w, s)
	if err != nil {
		return nil, err
	}
	return m.WaitFor(e)
}

// unitDescriptions converts skeleton tasks to compute-unit descriptions.
func unitDescriptions(w *skeleton.Workload) []pilot.UnitDescription {
	descs := make([]pilot.UnitDescription, 0, len(w.Tasks))
	for _, t := range w.Tasks {
		inputs := make([]pilot.InputFile, 0, len(t.Inputs))
		for _, f := range t.Inputs {
			inputs = append(inputs, pilot.InputFile{Bytes: f.Bytes, Producer: f.Producer})
		}
		descs = append(descs, pilot.UnitDescription{
			Name:        t.ID,
			Cores:       t.Cores,
			Duration:    t.Duration,
			Inputs:      inputs,
			OutputBytes: t.OutputBytes(),
			Deps:        t.Deps,
		})
	}
	return descs
}

// DeriveAndExecute is the full Execution Manager pipeline (Figure 1): gather
// information, derive the strategy, enact it, and wait for completion.
func (m *Manager) DeriveAndExecute(w *skeleton.Workload, cfg StrategyConfig) (*Report, error) {
	s, err := Derive(w, m.bundle, cfg, m.rng)
	if err != nil {
		return nil, err
	}
	return m.ExecuteAndWait(w, s)
}

// FeedbackWaits replays a report's observed pilot queue waits into the
// bundle's predictive history, so later derivations see fresher forecasts —
// the feedback loop staged execution (and any long-lived environment) uses.
func (m *Manager) FeedbackWaits(r *Report) {
	for pilotID, wait := range r.PilotWaits {
		if res := m.bundle.Resource(resourceOf(pilotID)); res != nil {
			res.ObserveWait(wait.Seconds())
		}
	}
}

// Links builds a LinkResolver over a name→link map, a convenience for
// callers assembling managers by hand.
func Links(links map[string]*netsim.Link) pilot.LinkResolver {
	return func(resource string) *netsim.Link { return links[resource] }
}
