package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"aimes/internal/scenario"
	"aimes/internal/stats"
)

// AblationOutages compares early and late binding under increasing outage
// rates — the experiment the paper gestures at (§V, "dynamic resources")
// but never runs. Each run drives the scenario engine: a compressed-wait
// testbed, a fixed pilot placement, and k hard outages injected mid-run
// that kill the pilot (and its running units) on the failed resource. Both
// arms replan lost pilots onto unused resources; what differs is the
// binding. Early binding funnels the whole workload through one pilot, so
// every outage serializes a full re-run behind a fresh queue wait; late
// binding only loses the failed pilot's share and backfills the returned
// units onto surviving pilots immediately.
func AblationOutages(w io.Writer, ntasks, reps, workers int) error {
	if _, err := fmt.Fprintf(w, "Ablation A11: mid-run outages, %d tasks, early vs late binding (seconds)\n", ntasks); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "outages  binding   mean_ttc      p90  units_done  rescheduled"); err != nil {
		return err
	}
	for _, outages := range []int{0, 1, 2} {
		for _, binding := range []string{"early", "late"} {
			var ttc stats.Summary
			done, resched := 0, 0
			results := make([]*scenario.Outcome, reps)
			errs := make([]error, reps)
			var wg sync.WaitGroup
			sem := make(chan struct{}, poolSize(workers))
			for r := 0; r < reps; r++ {
				wg.Add(1)
				go func(rep int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					s := outageScenario(binding, ntasks, outages, int64(10_000+rep))
					o, err := scenario.RunEnv(s, scenario.EnvOptions{Backend: "local"})
					if err == nil && o.Jobs[0].State != "done" {
						err = fmt.Errorf("job %s: %s", o.Jobs[0].State, o.Jobs[0].Err)
					}
					results[rep], errs[rep] = o, err
				}(r)
			}
			wg.Wait()
			for r := 0; r < reps; r++ {
				if errs[r] != nil {
					return fmt.Errorf("outage ablation (%s, %d outages, rep %d): %w",
						binding, outages, r, errs[r])
				}
				res := results[r]
				ttc.Add(res.Jobs[0].Report.TTC.Seconds())
				done += res.Jobs[0].Report.UnitsDone
				resched += res.Rescheduled
			}
			if _, err := fmt.Fprintf(w, "%7d  %-7s  %9.0f  %7.0f  %10d  %11d\n",
				outages, binding, ttc.Mean(), ttc.Percentile(90), done, resched); err != nil {
				return err
			}
		}
	}
	return nil
}

// outageScenario builds one ablation run: both arms share the testbed, the
// timescale-compressed waits, the adaptive replanning budget, and the outage
// timeline; only the binding (and its Table I pilot count) differs.
func outageScenario(binding string, ntasks, outages int, seed int64) *scenario.Scenario {
	strat := scenario.StrategySpec{
		Binding:   binding,
		Pilots:    1,
		Resources: []string{"stampede"},
		Adaptive: &scenario.AdaptiveSpec{
			Patience:          scenario.Duration(10 * time.Minute),
			ReplaceLostPilots: true,
			MaxReplacements:   3,
		},
	}
	if binding == "late" {
		strat.Pilots = 3
		strat.Resources = []string{"stampede", "comet", "gordon"}
	}
	// Outages are transient: each resource recovers 35 minutes later. A
	// pilot caught queued on the failed resource is held until recovery —
	// with early binding the bound workload waits out the whole outage,
	// while late binding flows to surviving pilots immediately.
	var events []scenario.Event
	outageTimes := []time.Duration{6 * time.Minute, 11 * time.Minute}
	outageTargets := []string{"stampede", "comet"}
	for i := 0; i < outages && i < len(outageTimes); i++ {
		events = append(events,
			scenario.Event{
				At:     scenario.Duration(outageTimes[i]),
				Action: scenario.ActionOutage,
				Target: outageTargets[i],
			},
			scenario.Event{
				At:     scenario.Duration(outageTimes[i] + 35*time.Minute),
				Action: scenario.ActionRecover,
				Target: outageTargets[i],
			})
	}
	return &scenario.Scenario{
		Name:     fmt.Sprintf("outage-ablation-%s-%d", binding, outages),
		Seed:     seed,
		Workload: scenario.WorkloadSpec{Tasks: ntasks, Duration: "10m"},
		Strategy: strat,
		Testbed: scenario.TestbedSpec{
			Sites: []scenario.SiteSpec{
				{Name: "stampede", MedianWait: scenario.Duration(2 * time.Minute)},
				{Name: "comet", MedianWait: scenario.Duration(3 * time.Minute)},
				{Name: "gordon", MedianWait: scenario.Duration(3 * time.Minute)},
				{Name: "blacklight", MedianWait: scenario.Duration(4 * time.Minute)},
				{Name: "hopper", MedianWait: scenario.Duration(4 * time.Minute)},
			},
		},
		Events: events,
	}
}
