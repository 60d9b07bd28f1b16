// Package scenario is the dynamics harness of the reproduction: declarative
// scenario files describe a workload, a testbed, and a timeline of injected
// resource events — outages and recoveries, queue surges, pilot preemptions,
// WAN degradation — and the engine drives them through the real execution
// stack (execution manager, pilot layer, SAGA adaptors, batch queues). The
// idiom follows fleet simulators such as Navarch: the scenario file is data,
// the control-plane code under test is the production code.
//
// The paper's core claim is that late binding via execution strategies pays
// off precisely when resources are dynamic; scenarios make that dynamism an
// input instead of a hard-coded experiment.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Duration is a time.Duration that unmarshals from JSON either as a Go
// duration string ("90s", "15m", "2h30m") or as a bare number of seconds.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return err
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Action names an injectable event type.
type Action string

// The injectable event types.
const (
	// ActionOutage takes a resource offline: its queue stops starting jobs
	// and (with kill_running, the default) running jobs — including active
	// pilots — die with a resource failure.
	ActionOutage Action = "outage"
	// ActionRecover brings a previously failed resource back online.
	ActionRecover Action = "recover"
	// ActionPreempt kills one active (or queued) pilot on the target
	// resource; its units return to the unit manager for rescheduling.
	ActionPreempt Action = "preempt-pilot"
	// ActionSurge injects a background-load burst: modeled queues scale
	// future sampled waits by wait_factor; emergent queues receive a burst of
	// jobs competing jobs. With a duration, the surge reverts afterwards.
	ActionSurge Action = "queue-surge"
	// ActionDegradeWAN multiplies the target's WAN bandwidth by
	// bandwidth_factor (< 1 degrades). With a duration, it reverts.
	ActionDegradeWAN Action = "degrade-wan"
	// ActionRestoreWAN restores the target's WAN link to its configured
	// bandwidth.
	ActionRestoreWAN Action = "restore-wan"
	// ActionFlapWAN degrades and restores the target's WAN link repeatedly:
	// cycles degradations of duration each, period apart — the flapping
	// link that stresses migration and staging decisions.
	ActionFlapWAN Action = "flap-wan"
	// ActionKillWorker severs the target worker shard's transport at the
	// event time (in the shard's virtual time), exercising the fleet's
	// respawn-and-replay path. Target is a shard index ("0"); empty targets
	// the scenario's own shard. Requires a fleet section.
	ActionKillWorker Action = "kill-worker"
	// ActionCordon marks a fleet endpoint ineligible for respawn placement.
	// Target is an endpoint name ("ep0"). Requires a fleet section.
	ActionCordon Action = "cordon-endpoint"
	// ActionUncordon reverses a cordon. Requires a fleet section.
	ActionUncordon Action = "uncordon-endpoint"
	// ActionDrain cordons an endpoint and severs every worker on it; their
	// shards fail over to the remaining endpoints within the restart
	// budget. Requires a fleet section.
	ActionDrain Action = "drain-endpoint"
)

var knownActions = map[Action]bool{
	ActionOutage:     true,
	ActionRecover:    true,
	ActionPreempt:    true,
	ActionSurge:      true,
	ActionDegradeWAN: true,
	ActionRestoreWAN: true,
	ActionFlapWAN:    true,
	ActionKillWorker: true,
	ActionCordon:     true,
	ActionUncordon:   true,
	ActionDrain:      true,
}

// fleetActions reach the worker-fleet control plane instead of the
// simulated testbed; they require a fleet section, which runs on the worker
// backend.
var fleetActions = map[Action]bool{
	ActionKillWorker: true,
	ActionCordon:     true,
	ActionUncordon:   true,
	ActionDrain:      true,
}

// Event is one timeline entry.
type Event struct {
	// At is the injection time, relative to enactment start.
	At Duration `json:"at"`
	// Action selects the event type.
	Action Action `json:"action"`
	// Target names the resource the event applies to.
	Target string `json:"target"`

	// KillRunning selects hard outages (kill running jobs, the default) vs
	// drain-style outages (running jobs finish, nothing new starts).
	KillRunning *bool `json:"kill_running,omitempty"`
	// Reason annotates preemptions in the trace.
	Reason string `json:"reason,omitempty"`

	// WaitFactor scales modeled queue waits during a surge (e.g. 4.0).
	WaitFactor float64 `json:"wait_factor,omitempty"`
	// Jobs is the burst size for surges on emergent queues.
	Jobs int `json:"jobs,omitempty"`
	// JobNodes is the per-job width of an emergent surge burst (default 8).
	JobNodes int `json:"job_nodes,omitempty"`
	// JobRuntime is the per-job runtime of an emergent surge burst
	// (default 1h).
	JobRuntime Duration `json:"job_runtime,omitempty"`
	// Duration bounds a surge or WAN degradation; zero means permanent.
	Duration Duration `json:"duration,omitempty"`

	// BandwidthFactor scales the WAN link capacity (e.g. 0.25).
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"`

	// Cycles is the number of degrade/restore rounds of a flap-wan event
	// (default 3).
	Cycles int `json:"cycles,omitempty"`
	// Period is the cycle length of a flap-wan event (default 2×duration).
	Period Duration `json:"period,omitempty"`
}

// killRunning resolves the outage mode default.
func (e Event) killRunning() bool {
	if e.KillRunning == nil {
		return true
	}
	return *e.KillRunning
}

// WorkloadSpec declares the application to execute.
type WorkloadSpec struct {
	// Tasks is the bag-of-tasks size.
	Tasks int `json:"tasks"`
	// Duration selects the task-duration distribution: "uniform" (constant
	// 15 min, the default), "gaussian" (truncated Gaussian of Table I), or a
	// fixed Go duration string such as "2m". Mutually exclusive with
	// Generator.
	Duration string `json:"duration,omitempty"`
	// Generator switches to the seeded arrival-process generator
	// (internal/scenario/workload): bursty, diurnal, or heavy-tailed task
	// mixes instead of a single distribution.
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// GeneratorSpec parameterizes the arrival-process workload generator. Knobs
// not used by the selected process are rejected only when structurally
// invalid, so a spec can be switched between processes by editing one field.
type GeneratorSpec struct {
	// Process is "bursty", "diurnal", or "heavy-tailed".
	Process string `json:"process"`
	// MeanDuration is the mean task duration (default 15m).
	MeanDuration Duration `json:"mean_duration,omitempty"`
	// Bursts is the burst count of the bursty process (default 4): tasks
	// arrive in bursts sharing a common duration scale.
	Bursts int `json:"bursts,omitempty"`
	// BurstSpread widens the lognormal spread between burst scales
	// (default 1).
	BurstSpread float64 `json:"burst_spread,omitempty"`
	// Amplitude is the diurnal modulation depth in [0, 1) (default 0.6).
	Amplitude float64 `json:"amplitude,omitempty"`
	// Alpha is the heavy-tailed (bounded Pareto) tail exponent, > 1
	// (default 1.5; smaller is heavier).
	Alpha float64 `json:"alpha,omitempty"`
	// MaxFactor caps heavy-tailed draws at MaxFactor × mean (default 20).
	MaxFactor float64 `json:"max_factor,omitempty"`
}

// AdaptiveSpec enables runtime strategy adaptation.
type AdaptiveSpec struct {
	// Patience is the no-activation window before widening onto an extra
	// resource (default 15m).
	Patience Duration `json:"patience,omitempty"`
	// MaxExtraPilots bounds widening rounds (default 2).
	MaxExtraPilots int `json:"max_extra_pilots,omitempty"`
	// ReplaceLostPilots replans when a pilot is lost to an outage or
	// preemption.
	ReplaceLostPilots bool `json:"replace_lost_pilots,omitempty"`
	// MaxReplacements bounds replacement rounds (default 2).
	MaxReplacements int `json:"max_replacements,omitempty"`
}

// StrategySpec fixes the execution-strategy knobs.
type StrategySpec struct {
	// Binding is "early" or "late".
	Binding string `json:"binding"`
	// Pilots is the pilot count (default: 1 early, 3 late).
	Pilots int `json:"pilots,omitempty"`
	// Resources pins pilot placement (SelectFixed); empty draws randomly.
	Resources []string `json:"resources,omitempty"`
	// Adaptive enables runtime adaptation; nil enacts statically.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
}

// SiteSpec selects (and optionally tweaks) one default-testbed site.
type SiteSpec struct {
	// Name must match a default-testbed site.
	Name string `json:"name"`
	// MedianWait overrides the modeled median queue wait, letting scenarios
	// compress timescales so events land mid-execution.
	MedianWait Duration `json:"median_wait,omitempty"`
}

// UnmarshalJSON accepts either a bare site-name string or the full object.
func (s *SiteSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &s.Name)
	}
	type raw SiteSpec
	return json.Unmarshal(b, (*raw)(s))
}

// TestbedSpec selects the simulated resources.
type TestbedSpec struct {
	// Sites subsets the default five-site testbed; empty uses all of it.
	Sites []SiteSpec `json:"sites,omitempty"`
	// BackgroundUtil switches the testbed to emergent queues (full batch
	// simulation under this background utilization, with warmup).
	BackgroundUtil float64 `json:"background_util,omitempty"`
}

// FleetSpec runs the scenario on a worker fleet instead of a single local
// stack: Workers worker shards (work stealing on) spread across Endpoints
// named endpoints "ep0".."ep<n-1>", with the jobs pinned to the scenario's
// shard so kill-worker lands on a deterministic mix of enacted and queued
// jobs. Fleet scenarios run only on the worker backend.
type FleetSpec struct {
	// Workers is the worker-shard count, at least 2 (default 2).
	Workers int `json:"workers,omitempty"`
	// Endpoints is the number of named endpoints (default 1).
	Endpoints int `json:"endpoints,omitempty"`
	// MaxRestarts is the per-shard respawn budget (default 0: a killed
	// worker's jobs fail and stay failed).
	MaxRestarts int `json:"max_restarts,omitempty"`
	// Jobs fans the workload out as this many pinned jobs (default 1);
	// submissions beyond the admission window queue un-enacted, which is
	// what a respawn replays.
	Jobs int `json:"jobs,omitempty"`
}

func (f *FleetSpec) workers() int {
	if f.Workers == 0 {
		return 2
	}
	return f.Workers
}

func (f *FleetSpec) endpoints() int {
	if f.Endpoints == 0 {
		return 1
	}
	return f.Endpoints
}

func (f *FleetSpec) jobs() int {
	if f.Jobs == 0 {
		return 1
	}
	return f.Jobs
}

// EndpointName returns the fleet's i-th endpoint name.
func EndpointName(i int) string { return fmt.Sprintf("ep%d", i) }

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	// Shard is the simulation shard the scenario targets: the run executes
	// under the shard-qualified namespace "s<Shard>-j1", so its pilot IDs
	// and trace entities line up with an Environment that runs the same
	// workload pinned to that shard (see aimes.WithShards). The shard's
	// seed is derived the same way the environment derives it, so shard 0
	// (the default) reproduces the classic single-engine trajectories.
	Shard    int          `json:"shard,omitempty"`
	Workload WorkloadSpec `json:"workload"`
	Strategy StrategySpec `json:"strategy"`
	Testbed  TestbedSpec  `json:"testbed,omitempty"`
	Fleet    *FleetSpec   `json:"fleet,omitempty"`
	Events   []Event      `json:"events,omitempty"`
	// Assertions are checked against the run's outcome (see Assert); a
	// scenario with assertions is a test case, not just a demo.
	Assertions []Assertion `json:"assertions,omitempty"`
}

// seed resolves the scenario seed default.
func (s *Scenario) seed() int64 {
	if s.Seed == 0 {
		return 42
	}
	return s.Seed
}

// Parse reads and validates a scenario from JSON.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseString parses a scenario from a JSON string.
func ParseString(s string) (*Scenario, error) {
	return Parse(strings.NewReader(s))
}

// Validate checks the whole scenario and reports every problem it finds as
// one joined error (one line per problem), each naming the scenario and —
// for timeline and assertion problems — the event or assertion index.
func (s *Scenario) Validate() error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if s.Name == "" {
		fail("scenario: missing name")
	}
	if s.Workload.Tasks <= 0 {
		fail("scenario %s: workload.tasks must be positive, got %d", s.Name, s.Workload.Tasks)
	}
	if s.Shard < 0 {
		fail("scenario %s: negative shard %d", s.Name, s.Shard)
	}
	if g := s.Workload.Generator; g != nil {
		if s.Workload.Duration != "" {
			fail("scenario %s: workload.duration and workload.generator are mutually exclusive", s.Name)
		}
		if err := g.params(s.Workload.Tasks).Validate(); err != nil {
			fail("scenario %s: workload.generator: %v", s.Name, err)
		}
	} else if _, err := s.Workload.durationSpec(); err != nil {
		errs = append(errs, err)
	}
	switch s.Strategy.Binding {
	case "early", "late":
	case "":
		fail("scenario %s: strategy.binding is required (early or late)", s.Name)
	default:
		fail("scenario %s: unknown binding %q (want early or late)", s.Name, s.Strategy.Binding)
	}
	if s.Strategy.Pilots < 0 {
		fail("scenario %s: negative pilot count %d", s.Name, s.Strategy.Pilots)
	}
	if a := s.Strategy.Adaptive; a != nil {
		if a.Patience < 0 || a.MaxExtraPilots < 0 || a.MaxReplacements < 0 {
			fail("scenario %s: adaptive knobs must be non-negative", s.Name)
		}
	}
	if s.Testbed.BackgroundUtil < 0 || s.Testbed.BackgroundUtil >= 1 {
		if s.Testbed.BackgroundUtil != 0 {
			fail("scenario %s: background_util %g out of (0, 1)", s.Name, s.Testbed.BackgroundUtil)
		}
	}
	if f := s.Fleet; f != nil {
		if f.Workers != 0 && (f.Workers < 2 || f.Workers > 16) {
			fail("scenario %s: fleet.workers must be in [2, 16] (0 defaults to 2), got %d", s.Name, f.Workers)
		}
		if f.Endpoints < 0 || f.Endpoints > 8 {
			fail("scenario %s: fleet.endpoints must be in [0, 8], got %d", s.Name, f.Endpoints)
		}
		if f.MaxRestarts < 0 {
			fail("scenario %s: negative fleet.max_restarts %d", s.Name, f.MaxRestarts)
		}
		if f.Jobs < 0 || f.Jobs > 64 {
			fail("scenario %s: fleet.jobs must be in [0, 64], got %d", s.Name, f.Jobs)
		}
		if s.Testbed.BackgroundUtil > 0 {
			fail("scenario %s: fleet scenarios do not support emergent testbeds (background_util)", s.Name)
		}
	}

	names, sitesErr := s.siteNames()
	if sitesErr != nil {
		errs = append(errs, sitesErr)
	}
	valid := make(map[string]bool, len(names))
	for _, n := range names {
		valid[n] = true
	}
	for _, r := range s.Strategy.Resources {
		if sitesErr == nil && !valid[r] {
			fail("scenario %s: strategy resource %q not in testbed %v", s.Name, r, names)
		}
	}
	// Compare against the pilot count Run will actually use: an omitted
	// count defaults per binding (late → 3, early → 1).
	pilots := s.strategyConfig().Pilots
	if n := len(s.Strategy.Resources); n > 0 && pilots > n {
		fail("scenario %s: %d pilots but only %d pinned resources", s.Name, pilots, n)
	}

	for i, e := range s.Events {
		where := fmt.Sprintf("scenario %s: event %d (%s)", s.Name, i, e.Action)
		if e.At < 0 {
			fail("%s: negative time %v", where, e.At.Std())
		}
		if !knownActions[e.Action] {
			fail("scenario %s: event %d: unknown action %q", s.Name, i, e.Action)
			continue
		}
		if e.Duration < 0 {
			fail("%s: negative duration %v", where, e.Duration.Std())
		}
		if fleetActions[e.Action] {
			s.validateFleetEvent(where, e, fail)
			continue
		}
		if e.Target == "" {
			fail("%s: missing target", where)
		} else if sitesErr == nil && !valid[e.Target] {
			fail("%s: target %q not in testbed %v", where, e.Target, names)
		}
		switch e.Action {
		case ActionSurge:
			if s.Testbed.BackgroundUtil > 0 {
				if e.Jobs <= 0 {
					fail("%s: emergent surge needs jobs > 0", where)
				}
			} else if e.WaitFactor <= 0 {
				fail("%s: modeled surge needs wait_factor > 0", where)
			}
		case ActionDegradeWAN:
			if e.BandwidthFactor <= 0 {
				fail("%s: needs bandwidth_factor > 0", where)
			}
		case ActionFlapWAN:
			if e.BandwidthFactor <= 0 {
				fail("%s: needs bandwidth_factor > 0", where)
			}
			if e.Duration <= 0 {
				fail("%s: needs duration > 0 (the degraded interval per cycle)", where)
			}
			if e.Cycles < 0 {
				fail("%s: negative cycles %d", where, e.Cycles)
			}
			if e.Period < 0 {
				fail("%s: negative period %v", where, e.Period.Std())
			} else if e.Period > 0 && e.Period < e.Duration {
				fail("%s: period %v shorter than the degraded duration %v", where, e.Period.Std(), e.Duration.Std())
			}
		}
	}

	for i, a := range s.Assertions {
		for _, err := range a.validate(s) {
			fail("scenario %s: assertion %d: %v", s.Name, i, err)
		}
	}
	return errors.Join(errs...)
}

// validateFleetEvent checks one fleet-control event.
func (s *Scenario) validateFleetEvent(where string, e Event, fail func(string, ...any)) {
	if s.Fleet == nil {
		fail("%s: requires a fleet section", where)
		return
	}
	if e.Action == ActionKillWorker {
		if e.Target == "" {
			return // defaults to the scenario's shard
		}
		k, err := strconv.Atoi(e.Target)
		if err != nil || k < 0 || k >= s.Fleet.workers() {
			fail("%s: target must be a worker shard index in [0, %d), got %q", where, s.Fleet.workers(), e.Target)
		}
		return
	}
	if e.Target == "" {
		fail("%s: missing target", where)
		return
	}
	for i := 0; i < s.Fleet.endpoints(); i++ {
		if e.Target == EndpointName(i) {
			return
		}
	}
	fail("%s: target %q is not a fleet endpoint (ep0..ep%d)", where, e.Target, s.Fleet.endpoints()-1)
}
