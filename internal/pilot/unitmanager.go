package pilot

import (
	"fmt"

	"aimes/internal/netsim"
	"aimes/internal/sim"
	"aimes/internal/trace"
)

// Unit is one compute unit under management.
type Unit struct {
	desc  UnitDescription
	id    string // trace entity: "unit.<name>"
	state UnitState
	since sim.Time // when the unit entered state
	um    *UnitManager

	pilot    *Pilot
	attempts int
	// committed reports whether this unit currently counts against its
	// pilot's committed cores.
	committed bool

	transfer *netsim.Transfer
}

// Name returns the unit name from its description.
func (u *Unit) Name() string { return u.desc.Name }

// Description returns the unit description.
func (u *Unit) Description() UnitDescription { return u.desc }

// State returns the current state.
func (u *Unit) State() UnitState { return u.state }

// Pilot returns the pilot the unit is bound to, or nil.
func (u *Unit) Pilot() *Pilot { return u.pilot }

// Attempts reports how many failed execution attempts occurred.
func (u *Unit) Attempts() int { return u.attempts }

// transition is the one place a unit changes state. Leaving EXECUTING or a
// staging state closes that span on the manager, so a restarted unit
// contributes one span per attempt.
func (u *Unit) transition(state UnitState, detail string) {
	now := u.um.sys.eng.Now()
	switch u.state {
	case UnitExecuting:
		u.um.execSpans = append(u.um.execSpans, trace.Span{Start: u.since, End: now})
	case UnitStagingInput, UnitStagingOutput:
		u.um.stageSpans = append(u.um.stageSpans, trace.Span{Start: u.since, End: now})
	}
	u.state, u.since = state, now
	u.um.sys.rec.Record(now, u.id, state.String(), detail)
}

// finalize moves the unit to a terminal state and notifies the manager.
func (u *Unit) finalize(state UnitState, detail string) {
	u.transition(state, detail)
	u.um.unitFinal(u)
}

// pilotCommitRelease releases the unit's core commitment on its pilot.
func (u *Unit) pilotCommitRelease() {
	if u.committed && u.pilot != nil {
		u.um.committed[u.pilot] -= u.desc.Cores
		u.committed = false
	}
}

// stageOutput starts the output transfer back to the origin.
func (u *Unit) stageOutput() {
	if u.desc.OutputBytes <= 0 {
		u.finalize(UnitDone, "")
		return
	}
	link := u.um.sys.links(u.pilot.desc.Resource)
	u.transition(UnitStagingOutput, fmt.Sprintf("%d bytes", u.desc.OutputBytes))
	unit := u
	u.transfer = link.Start(u.desc.OutputBytes, func() {
		unit.transfer = nil
		unit.finalize(UnitDone, "")
	})
}

// Scheduler places eligible units onto pilots. Implementations must not
// mutate their arguments. The paper's execution strategies differ exactly
// here: early binding uses Direct (one pilot, bound before activation);
// late binding uses Backfill (units flow to whichever active pilot has free
// capacity).
type Scheduler interface {
	// Name identifies the scheduler in traces and configuration.
	Name() string
	// Place returns unit→pilot assignments. Units left unassigned remain
	// eligible for the next call.
	Place(ready []*Unit, pilots []*Pilot, committed map[*Pilot]int) []Assignment
}

// Assignment binds one unit to one pilot.
type Assignment struct {
	Unit  *Unit
	Pilot *Pilot
}

// Direct assigns every unit to the first non-final pilot immediately — the
// paper's early-binding scheduler (experiments 1 and 2 use it with a single
// pilot).
type Direct struct{}

// Name implements Scheduler.
func (Direct) Name() string { return "direct" }

// Place implements Scheduler.
func (Direct) Place(ready []*Unit, pilots []*Pilot, _ map[*Pilot]int) []Assignment {
	var target *Pilot
	for _, p := range pilots {
		if !p.State().Final() {
			target = p
			break
		}
	}
	if target == nil {
		return nil
	}
	out := make([]Assignment, 0, len(ready))
	for _, u := range ready {
		out = append(out, Assignment{Unit: u, Pilot: target})
	}
	return out
}

// RoundRobin distributes units evenly across non-final pilots at submission
// time — early binding over multiple pilots (the combination the paper
// discards as dominated, kept here for the ablation benchmarks).
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Place implements Scheduler.
func (RoundRobin) Place(ready []*Unit, pilots []*Pilot, _ map[*Pilot]int) []Assignment {
	var alive []*Pilot
	for _, p := range pilots {
		if !p.State().Final() {
			alive = append(alive, p)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	out := make([]Assignment, 0, len(ready))
	for i, u := range ready {
		out = append(out, Assignment{Unit: u, Pilot: alive[i%len(alive)]})
	}
	return out
}

// Backfill is the paper's late-binding scheduler: units stay with the unit
// manager until a pilot is active with uncommitted cores, then flow to it.
// The first pilot to clear its queue starts executing the workload; others
// join as they activate.
type Backfill struct{}

// Name implements Scheduler.
func (Backfill) Name() string { return "backfill" }

// Place implements Scheduler.
func (Backfill) Place(ready []*Unit, pilots []*Pilot, committed map[*Pilot]int) []Assignment {
	var out []Assignment
	free := make(map[*Pilot]int, len(pilots))
	for _, p := range pilots {
		if p.State() == PilotActive {
			free[p] = p.desc.Cores - committed[p]
		}
	}
	for _, u := range ready {
		for _, p := range pilots {
			if p.State() != PilotActive {
				continue
			}
			if free[p] >= u.desc.Cores {
				free[p] -= u.desc.Cores
				out = append(out, Assignment{Unit: u, Pilot: p})
				break
			}
		}
	}
	return out
}

// UnitManager accepts units, schedules them over pilots, manages data
// staging and dependencies, and reschedules units that lose their pilot —
// RADICAL-Pilot's UnitManager.
type UnitManager struct {
	sys       *System
	scheduler Scheduler
	pilots    []*Pilot
	units     []*Unit
	byName    map[string]*Unit
	committed map[*Pilot]int

	placeQueued bool
	doneCount   int
	onDone      []func()

	// execSpans and stageSpans are what Spans returns.
	execSpans, stageSpans []trace.Span
}

// NewUnitManager creates a unit manager with the given scheduler.
func NewUnitManager(sys *System, sched Scheduler) *UnitManager {
	return &UnitManager{
		sys:       sys,
		scheduler: sched,
		byName:    make(map[string]*Unit),
		committed: make(map[*Pilot]int),
	}
}

// Scheduler returns the active unit scheduler.
func (um *UnitManager) Scheduler() Scheduler { return um.scheduler }

// AddPilot registers a pilot with the manager and reacts to its state
// changes.
func (um *UnitManager) AddPilot(p *Pilot) {
	um.pilots = append(um.pilots, p)
	p.onState = append(p.onState, func(p *Pilot) { um.pilotChanged(p) })
	// If the pilot is already active (added late), pick up queued units.
	if p.State() == PilotActive {
		um.pilotChanged(p)
	}
}

// Pilots returns registered pilots.
func (um *UnitManager) Pilots() []*Pilot {
	cp := make([]*Pilot, len(um.pilots))
	copy(cp, um.pilots)
	return cp
}

// Units returns all managed units in submission order.
func (um *UnitManager) Units() []*Unit {
	cp := make([]*Unit, len(um.units))
	copy(cp, um.units)
	return cp
}

// Spans returns every unit's closed execution and staging spans, one per
// visit to the state. Callers must not modify the slices.
func (um *UnitManager) Spans() (exec, stage []trace.Span) {
	return um.execSpans, um.stageSpans
}

// Unit returns the named unit, or nil.
func (um *UnitManager) Unit(name string) *Unit { return um.byName[name] }

// OnCompletion registers a callback fired once when every unit is terminal.
func (um *UnitManager) OnCompletion(fn func()) {
	um.onDone = append(um.onDone, fn)
}

// Done reports whether all units are terminal.
func (um *UnitManager) Done() bool {
	return len(um.units) > 0 && um.doneCount == len(um.units)
}

// Submit accepts unit descriptions for execution.
func (um *UnitManager) Submit(descs []UnitDescription) error {
	for _, d := range descs {
		if err := d.Validate(); err != nil {
			return err
		}
		if _, dup := um.byName[d.Name]; dup {
			return fmt.Errorf("pilot: duplicate unit %q", d.Name)
		}
		// Input producers imply dependencies; union them with explicit Deps.
		deps := map[string]bool{}
		for _, dep := range d.Deps {
			deps[dep] = true
		}
		for _, f := range d.Inputs {
			if f.Producer != "" {
				deps[f.Producer] = true
			}
		}
		d.Deps = d.Deps[:0:0]
		for dep := range deps {
			if _, ok := um.byName[dep]; !ok {
				return fmt.Errorf("pilot: unit %q depends on unknown unit %q (submit producers first)", d.Name, dep)
			}
			d.Deps = append(d.Deps, dep)
		}
		u := &Unit{desc: d, id: "unit." + d.Name, um: um}
		um.units = append(um.units, u)
		um.byName[d.Name] = u
		u.transition(UnitNew, "")
		u.transition(UnitScheduling, "")
	}
	um.schedulePlace()
	return nil
}

// CancelAll cancels every non-final unit.
func (um *UnitManager) CancelAll() {
	for _, u := range um.units {
		um.Cancel(u)
	}
}

// Cancel terminates one unit.
func (um *UnitManager) Cancel(u *Unit) {
	if u.state.Final() {
		return
	}
	if u.transfer != nil && u.pilot != nil {
		um.sys.links(u.pilot.desc.Resource).Cancel(u.transfer)
		u.transfer = nil
	}
	u.pilotCommitRelease()
	u.finalize(UnitCanceled, "")
}

// schedulePlace coalesces placement triggers within one timestamp.
func (um *UnitManager) schedulePlace() {
	if um.placeQueued {
		return
	}
	um.placeQueued = true
	um.sys.eng.Schedule(0, func() {
		um.placeQueued = false
		um.place()
	})
}

// eligible returns units awaiting placement whose dependencies are done.
func (um *UnitManager) eligible() []*Unit {
	var out []*Unit
	for _, u := range um.units {
		if u.state != UnitScheduling {
			continue
		}
		ok := true
		for _, dep := range u.desc.Deps {
			if d := um.byName[dep]; d == nil || d.state != UnitDone {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, u)
		}
	}
	return out
}

// place runs the scheduler and enacts its assignments.
func (um *UnitManager) place() {
	ready := um.eligible()
	if len(ready) == 0 {
		um.failIfOrphaned()
		return
	}
	assignments := um.scheduler.Place(ready, um.pilots, um.committed)
	for _, as := range assignments {
		um.bind(as.Unit, as.Pilot)
	}
	um.failIfOrphaned()
}

// bind attaches a unit to a pilot and starts input staging.
func (um *UnitManager) bind(u *Unit, p *Pilot) {
	if u.state != UnitScheduling || p.State().Final() {
		return
	}
	u.pilot = p
	u.committed = true
	um.committed[p] += u.desc.Cores

	bytes := um.stageInBytes(u, p)
	u.transition(UnitStagingInput, fmt.Sprintf("%s, %d bytes", p.id, bytes))
	if bytes <= 0 {
		um.staged(u)
		return
	}
	link := um.sys.links(p.desc.Resource)
	unit := u
	u.transfer = link.Start(bytes, func() {
		unit.transfer = nil
		um.staged(unit)
	})
}

// stageInBytes computes the payload that must cross the WAN for a unit bound
// to pilot p: external inputs always move; dependency inputs move unless the
// producer ran on the same pilot (then they are already on the resource's
// filesystem).
func (um *UnitManager) stageInBytes(u *Unit, p *Pilot) int64 {
	var n int64
	for _, f := range u.desc.Inputs {
		if f.Producer == "" {
			n += f.Bytes
			continue
		}
		producer := um.byName[f.Producer]
		if producer == nil || producer.pilot != p {
			n += f.Bytes
		}
	}
	return n
}

// staged moves a unit to the agent queue once inputs are on the resource.
func (um *UnitManager) staged(u *Unit) {
	if u.state != UnitStagingInput {
		return
	}
	u.transition(UnitAgentQueued, "")
	if u.pilot.State() == PilotActive && u.pilot.agent != nil {
		u.pilot.agent.enqueue(u)
	}
	// Otherwise the unit waits; pilotChanged hands it to the agent on
	// activation.
}

// pilotChanged reacts to pilot state transitions.
func (um *UnitManager) pilotChanged(p *Pilot) {
	switch {
	case p.State() == PilotActive:
		// Hand any units that finished staging during the queue wait to the
		// fresh agent.
		for _, u := range um.units {
			if u.pilot == p && u.state == UnitAgentQueued {
				p.agent.enqueue(u)
			}
		}
		um.schedulePlace()
	case p.State().Final():
		um.reclaimBound(p)
		um.schedulePlace()
	}
}

// reclaimBound returns non-final units still bound to a dead pilot to the
// scheduler. The agent's shutdown already returned units it knew about
// (executing or agent-queued on an active pilot); this catches units whose
// pilot died before activation or mid-staging — in-flight transfers to the
// dead resource are abandoned.
func (um *UnitManager) reclaimBound(p *Pilot) {
	cause := "retired"
	if p.State() == PilotFailed {
		cause = "lost"
	}
	for _, u := range um.units {
		if u.pilot != p {
			continue
		}
		switch u.state {
		case UnitStagingInput, UnitAgentQueued:
			if u.transfer != nil {
				um.sys.links(p.desc.Resource).Cancel(u.transfer)
				u.transfer = nil
			}
			um.returnUnit(u, "pilot "+p.id+" "+cause)
		}
	}
}

// returnUnit receives a unit back from a dying agent for rescheduling.
func (um *UnitManager) returnUnit(u *Unit, reason string) {
	if u.state.Final() {
		return
	}
	u.pilotCommitRelease()
	u.pilot = nil
	u.transition(UnitScheduling, reason)
	um.schedulePlace()
}

// capacityFreed is called by agents when cores free up.
func (um *UnitManager) capacityFreed() {
	um.schedulePlace()
}

// unitFinal accounts for a terminal unit and fires completion callbacks.
func (um *UnitManager) unitFinal(u *Unit) {
	u.pilotCommitRelease()
	um.doneCount++
	if u.state == UnitDone {
		// Dependents may have become eligible.
		um.schedulePlace()
	}
	if um.doneCount == len(um.units) {
		for _, fn := range um.onDone {
			fn()
		}
		um.onDone = nil
	}
}

// failIfOrphaned fails units that can never be placed because every pilot is
// terminal.
func (um *UnitManager) failIfOrphaned() {
	if len(um.pilots) == 0 {
		return
	}
	for _, p := range um.pilots {
		if !p.State().Final() {
			return
		}
	}
	for _, u := range um.units {
		if u.state == UnitScheduling || u.state == UnitStagingInput || u.state == UnitAgentQueued {
			if u.transfer != nil && u.pilot != nil {
				um.sys.links(u.pilot.desc.Resource).Cancel(u.transfer)
				u.transfer = nil
			}
			u.pilotCommitRelease()
			u.finalize(UnitFailed, "no pilots available")
		}
	}
}
