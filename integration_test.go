package aimes_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"aimes"
	"aimes/internal/experiments"
	"aimes/internal/netsim"
	"aimes/internal/pilot"
	"aimes/internal/saga"
	"aimes/internal/sim"
	"aimes/internal/trace"
)

// TestFullPipelineTextConfig drives the complete pipeline from a text-format
// skeleton config through execution, as a user of the CLI tools would.
func TestFullPipelineTextConfig(t *testing.T) {
	cfg := `
name = pipeline
stage = prep
tasks = 8
duration = uniform 30 90
input = constant 2097152
output = constant 524288

stage = solve
tasks = 8
inputs_from = one-to-one
duration = truncnormal 300 60 60 600
output = constant 4096
`
	app, err := aimes.ParseAppText(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	env, err := aimes.NewEnv(aimes.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	report, err := env.RunApp(app, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.UnitsDone != 16 {
		t.Fatalf("done = %d, want 16", report.UnitsDone)
	}
	if report.Efficiency <= 0 || report.CoreHours <= 0 {
		t.Fatalf("efficiency accounting missing: %+v", report)
	}
}

// TestFailureInjectionThroughFacade verifies automatic restarts across the
// whole stack.
func TestFailureInjectionThroughFacade(t *testing.T) {
	pcfg := aimes.PilotConfig{
		AgentDispatchOverhead: 100 * time.Millisecond,
		UnitFailureProb:       0.3,
		DefaultMaxRestarts:    5,
	}
	env, err := aimes.NewEnv(aimes.WithSeed(33), aimes.WithPilotConfig(pcfg))
	if err != nil {
		t.Fatal(err)
	}
	report, err := env.RunApp(aimes.BagOfTasks(64, aimes.UniformDuration()), aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.UnitsDone != 64 {
		t.Fatalf("done = %d, want 64 (restarts should absorb failures)", report.UnitsDone)
	}
	if report.TotalRestarts == 0 {
		t.Fatal("no restarts at 30% failure probability")
	}
}

// TestTraceExportFormats exercises the introspection exporters end to end.
func TestTraceExportFormats(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(44))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.RunApp(aimes.BagOfTasks(4, aimes.UniformDuration()), aimes.StrategyConfig{
		Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1,
	}); err != nil {
		t.Fatal(err)
	}
	var csv, jsonBuf bytes.Buffer
	if err := env.Recorder().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := env.Recorder().WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "EXECUTING") {
		t.Fatal("CSV trace missing execution records")
	}
	if !strings.Contains(jsonBuf.String(), `"entity"`) {
		t.Fatal("JSON trace malformed")
	}
	// Pilot lifecycle fully recorded.
	for _, state := range []string{"NEW", "LAUNCHING", "PENDING", "ACTIVE"} {
		if len(env.Recorder().ByState(state)) == 0 {
			t.Fatalf("trace missing pilot state %s", state)
		}
	}
}

// TestStrategyComparisonInvariants checks cross-strategy report invariants
// on identical seeds: late binding activates more pilots, both complete the
// workload, components are internally consistent.
func TestStrategyComparisonInvariants(t *testing.T) {
	for seed := int64(50); seed < 54; seed++ {
		run := func(cfg aimes.StrategyConfig) *aimes.Report {
			env, err := aimes.NewEnv(aimes.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			r, err := env.RunApp(aimes.BagOfTasks(32, aimes.UniformDuration()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		early := run(aimes.StrategyConfig{
			Binding: aimes.EarlyBinding, Scheduler: aimes.SchedDirect, Pilots: 1})
		late := run(aimes.StrategyConfig{
			Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 3})

		for _, r := range []*aimes.Report{early, late} {
			if r.UnitsDone != 32 {
				t.Fatalf("seed %d: done = %d", seed, r.UnitsDone)
			}
			if r.TTC < r.Tw {
				t.Fatalf("seed %d: TTC %v < Tw %v", seed, r.TTC, r.Tw)
			}
			if r.TTC >= r.Tw+r.Tx+r.Ts {
				t.Fatalf("seed %d: no component overlap", seed)
			}
			if r.Tx < 15*time.Minute {
				t.Fatalf("seed %d: Tx %v below task duration", seed, r.Tx)
			}
		}
		if early.PilotsActivated != 1 {
			t.Fatalf("seed %d: early activated %d pilots", seed, early.PilotsActivated)
		}
	}
}

// TestRunAdaptiveThroughFacade exercises the runtime-adaptation API.
func TestRunAdaptiveThroughFacade(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(60))
	if err != nil {
		t.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(16, aimes.UniformDuration()), 60)
	if err != nil {
		t.Fatal(err)
	}
	s, err := env.Derive(w, aimes.StrategyConfig{
		Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := env.RunAdaptive(w, s, aimes.AdaptiveConfig{
		Patience:       5 * time.Minute,
		MaxExtraPilots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.UnitsDone != 16 {
		t.Fatalf("done = %d", report.UnitsDone)
	}
}

// TestChoosePilotCountThroughFacade exercises the heuristic via primed
// bundle history.
func TestChoosePilotCountThroughFacade(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(61))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range aimes.DefaultTestbed() {
		r := env.Bundle().Resource(cfg.Name)
		for i := 0; i < 64; i++ {
			r.ObserveWait(float64(300 + 100*i%2000))
		}
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(128, aimes.UniformDuration()), 61)
	if err != nil {
		t.Fatal(err)
	}
	k := aimes.ChoosePilotCount(w, env.Bundle(), 5)
	if k < 1 || k > 5 {
		t.Fatalf("k = %d out of range", k)
	}
}

// TestSequentialRunsShareEnvironment verifies an environment survives
// multiple workload executions with a consistent clock and trace.
func TestSequentialRunsShareEnvironment(t *testing.T) {
	env, err := aimes.NewEnv(aimes.WithSeed(70))
	if err != nil {
		t.Fatal(err)
	}
	var prevLen int
	for i := 0; i < 3; i++ {
		report, err := env.RunApp(aimes.BagOfTasks(8, aimes.UniformDuration()), aimes.StrategyConfig{
			Binding: aimes.LateBinding, Scheduler: aimes.SchedBackfill, Pilots: 2,
		})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if report.UnitsDone != 8 {
			t.Fatalf("run %d: done = %d", i, report.UnitsDone)
		}
		if env.Recorder().Len() <= prevLen {
			t.Fatalf("run %d: trace did not grow", i)
		}
		prevLen = env.Recorder().Len()
	}
}

// TestAblationOutputsWellFormed smoke-tests every ablation table end to end
// with minimal repetitions.
func TestAblationOutputsWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations need simulation time")
	}
	cases := []struct {
		name string
		fn   func(*bytes.Buffer) error
		want string
	}{
		{"pilots", func(b *bytes.Buffer) error { return experiments.AblationPilotCount(b, 64, 2, 0) }, "pilot-count sweep"},
		{"predict", func(b *bytes.Buffer) error { return experiments.AblationPrediction(b, 64, 2, 0) }, "predicted-wait"},
		{"failures", func(b *bytes.Buffer) error { return experiments.AblationFailures(b, 32, 2, 0) }, "fail_prob"},
		{"throughput", func(b *bytes.Buffer) error { return experiments.AblationThroughput(b, 64, 2, 0) }, "units/hour"},
		{"hetero", func(b *bytes.Buffer) error { return experiments.AblationHeterogeneous(b, 64, 2, 0) }, "lognormal"},
		{"adaptive", func(b *bytes.Buffer) error { return experiments.AblationAdaptive(b, 32, 2, 0) }, "adaptive"},
		{"autok", func(b *bytes.Buffer) error { return experiments.AblationAutoPilots(b, 64, 2, 0) }, "auto-k"},
		{"efficiency", func(b *bytes.Buffer) error { return experiments.AblationEfficiency(b, 64, 2, 0) }, "core_hours"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.fn(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Fatalf("%s output missing %q:\n%s", c.name, c.want, buf.String())
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 3 {
			t.Fatalf("%s produced %d lines", c.name, len(lines))
		}
	}
}

// TestRealTimePilotExecution proves the middleware is engine-agnostic: the
// same pilot system executes a workload on the wall-clock engine with the
// local SAGA adaptor.
func TestRealTimePilotExecution(t *testing.T) {
	eng := sim.NewRealTime()
	sess := saga.NewSession()
	sess.Register(saga.NewLocalAdaptor(eng, 2))
	loop := netsim.NewLink(eng, "loopback", 1e9, time.Millisecond)
	links := func(string) *netsim.Link { return loop }
	cfg := pilot.Config{AgentDispatchOverhead: time.Millisecond, DefaultMaxRestarts: 1}
	sys := pilot.NewSystem(eng, sess, links, trace.NewRecorder(), cfg, nil)
	pm := pilot.NewPilotManager(sys)
	um := pilot.NewUnitManager(sys, pilot.Backfill{})
	p, err := pm.Submit(pilot.PilotDescription{
		Resource: "localhost", Cores: 2, Walltime: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	um.AddPilot(p)
	done := make(chan struct{})
	um.OnCompletion(func() {
		pm.CancelAll()
		close(done)
	})
	descs := make([]pilot.UnitDescription, 6)
	for i := range descs {
		descs[i] = pilot.UnitDescription{
			Name:     string(rune('a' + i)),
			Cores:    1,
			Duration: 5 * time.Millisecond,
		}
	}
	if err := um.Submit(descs); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("real-time workload did not complete")
	}
	for _, u := range um.Units() {
		if u.State() != pilot.UnitDone {
			t.Fatalf("unit %s state %v", u.Name(), u.State())
		}
	}
}
