package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aimes/internal/backend"
	"aimes/internal/batch"
	"aimes/internal/core"
	"aimes/internal/sim"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"

	wkl "aimes/internal/scenario/workload"
)

// AppliedEvent records one injected event with its (virtual) firing time,
// relative to enactment start (an emergent testbed's warmup excluded).
type AppliedEvent struct {
	At     sim.Time
	Action Action
	Target string
	Detail string
}

func (a AppliedEvent) String() string {
	return fmt.Sprintf("%s  %-12s %-10s %s", a.At, a.Action, a.Target, a.Detail)
}

// appliedFrom reconstructs the applied-event timeline from the "chaos"
// trace records the backend logs when an injection fires.
func appliedFrom(rec *trace.Recorder, epoch sim.Time) []AppliedEvent {
	var out []AppliedEvent
	seen := make(map[string]bool)
	for _, r := range rec.Records() {
		if r.Entity != "chaos" {
			continue
		}
		// Multi-job runs log one record per live job; the timeline wants
		// each firing once.
		key := fmt.Sprintf("%d/%s/%s", r.Time, r.State, r.Detail)
		if seen[key] {
			continue
		}
		seen[key] = true
		target, detail, ok := strings.Cut(r.Detail, ": ")
		if !ok {
			target, detail = "", r.Detail
		}
		out = append(out, AppliedEvent{
			At: r.Time - epoch, Action: Action(strings.ToLower(r.State)),
			Target: target, Detail: detail,
		})
	}
	return out
}

// dynamicsFrom counts the dynamics aggregates from the qualified trace:
// pilots that ended FAILED, and lost-pilot unit returns (SCHEDULING records
// with detail "pilot X lost"; routine walltime retirements and application
// cancellations are tagged "retired"/"canceled" and are not dynamics).
func dynamicsFrom(rec *trace.Recorder) (pilotsLost, rescheduled int) {
	for _, r := range rec.Records() {
		switch {
		case strings.HasPrefix(r.Entity, "pilot.") && r.State == "FAILED":
			pilotsLost++
		case strings.HasPrefix(r.Entity, "unit.") && r.State == "SCHEDULING" &&
			strings.HasPrefix(r.Detail, "pilot ") && strings.HasSuffix(r.Detail, " lost"):
			rescheduled++
		}
	}
	return
}

// testbedEvents returns the timeline's site-level events ready for backend
// injection: fleet-control events are excluded (RunEnv applies those
// through the environment) and flap-wan is expanded into its degrade
// cycles.
func (s *Scenario) testbedEvents() []Event {
	var out []Event
	for _, e := range s.Events {
		switch {
		case fleetActions[e.Action]:
			continue
		case e.Action == ActionFlapWAN:
			cycles := e.Cycles
			if cycles == 0 {
				cycles = 3
			}
			period := e.Period
			if period == 0 {
				period = 2 * e.Duration
			}
			for i := 0; i < cycles; i++ {
				out = append(out, Event{
					At: e.At + Duration(i)*period, Action: ActionDegradeWAN,
					Target: e.Target, BandwidthFactor: e.BandwidthFactor,
					Duration: e.Duration,
				})
			}
		default:
			out = append(out, e)
		}
	}
	return out
}

// chaos translates a timeline event into the backend's wire-serializable
// chaos form.
func (e Event) chaos() backend.ChaosEvent {
	return backend.ChaosEvent{
		After: e.At.Std(), Action: string(e.Action), Target: e.Target,
		KillRunning: e.KillRunning, Reason: e.Reason,
		WaitFactor: e.WaitFactor, Jobs: e.Jobs, JobNodes: e.JobNodes,
		JobRuntime: e.JobRuntime.Std(), Duration: e.Duration.Std(),
		BandwidthFactor: e.BandwidthFactor,
	}
}

// siteNames resolves the testbed's site names (for validation).
func (s *Scenario) siteNames() ([]string, error) {
	configs, err := s.siteConfigs()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = c.Name
	}
	return names, nil
}

// siteConfigs builds the testbed configuration: the default five sites,
// optionally subset/tweaked, optionally switched to emergent queues.
func (s *Scenario) siteConfigs() ([]site.Config, error) {
	defaults := site.DefaultTestbed()
	byName := make(map[string]site.Config, len(defaults))
	for _, c := range defaults {
		byName[c.Name] = c
	}
	var configs []site.Config
	if len(s.Testbed.Sites) == 0 {
		configs = defaults
	} else {
		for _, spec := range s.Testbed.Sites {
			c, ok := byName[spec.Name]
			if !ok {
				known := make([]string, 0, len(byName))
				for n := range byName {
					known = append(known, n)
				}
				sort.Strings(known)
				return nil, fmt.Errorf("scenario %s: unknown site %q (known: %v)", s.Name, spec.Name, known)
			}
			if spec.MedianWait > 0 {
				c.WaitModel.MedianWait = spec.MedianWait.Std()
				if c.WaitModel.MinWait > c.WaitModel.MedianWait {
					c.WaitModel.MinWait = c.WaitModel.MedianWait / 2
				}
			}
			configs = append(configs, c)
		}
	}
	if s.Testbed.BackgroundUtil > 0 {
		configs = site.EmergentTestbed(configs, s.Testbed.BackgroundUtil, batch.EASY{})
	}
	return configs, nil
}

// durationSpec resolves the workload duration distribution.
func (w WorkloadSpec) durationSpec() (skeleton.Spec, error) {
	switch w.Duration {
	case "", "uniform":
		return skeleton.UniformDuration(), nil
	case "gaussian":
		return skeleton.GaussianDuration(), nil
	}
	d, err := time.ParseDuration(w.Duration)
	if err != nil || d <= 0 {
		return skeleton.Spec{}, fmt.Errorf(
			"scenario: workload duration %q is not uniform, gaussian, or a positive Go duration", w.Duration)
	}
	return skeleton.Constant(d.Seconds()), nil
}

// params translates the generator spec for the workload package.
func (g *GeneratorSpec) params(tasks int) wkl.Params {
	return wkl.Params{
		Process: g.Process, Tasks: tasks, MeanDuration: g.MeanDuration.Std(),
		Bursts: g.Bursts, BurstSpread: g.BurstSpread, Amplitude: g.Amplitude,
		Alpha: g.Alpha, MaxFactor: g.MaxFactor,
	}
}

// workload materializes the scenario's application: the arrival-process
// generator when selected, the classic bag of tasks otherwise.
func (s *Scenario) workload(seed int64) (*skeleton.Workload, error) {
	if g := s.Workload.Generator; g != nil {
		return wkl.Generate(g.params(s.Workload.Tasks), seed)
	}
	spec, err := s.Workload.durationSpec()
	if err != nil {
		return nil, err
	}
	return skeleton.Generate(skeleton.BagOfTasks(s.Workload.Tasks, spec), seed)
}

// strategyConfig translates the spec into derivation knobs.
func (s *Scenario) strategyConfig() core.StrategyConfig {
	cfg := core.StrategyConfig{Pilots: s.Strategy.Pilots}
	if s.Strategy.Binding == "late" {
		cfg.Binding = core.LateBinding
		cfg.Scheduler = core.SchedBackfill
		if cfg.Pilots == 0 {
			cfg.Pilots = 3
		}
	} else {
		cfg.Binding = core.EarlyBinding
		cfg.Scheduler = core.SchedDirect
		if cfg.Pilots == 0 {
			cfg.Pilots = 1
		}
	}
	if len(s.Strategy.Resources) > 0 {
		cfg.Selection = core.SelectFixed
		cfg.FixedResources = s.Strategy.Resources
	} else {
		cfg.Selection = core.SelectRandom
	}
	return cfg
}

// config translates the adaptive spec.
func (a AdaptiveSpec) config() core.AdaptiveConfig {
	cfg := core.AdaptiveConfig{
		Patience:          a.Patience.Std(),
		MaxExtraPilots:    a.MaxExtraPilots,
		ReplaceLostPilots: a.ReplaceLostPilots,
		MaxReplacements:   a.MaxReplacements,
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 15 * time.Minute
	}
	return cfg
}
