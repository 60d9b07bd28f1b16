package scenario

import (
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aimes"
	"aimes/internal/sim"
)

// TestMain lets this test binary serve as its own worker: a child spawned
// with the worker environment variable set serves the framed protocol on
// stdio and exits inside WorkerMain; every other invocation runs the tests.
func TestMain(m *testing.M) {
	aimes.WorkerMain()
	os.Exit(m.Run())
}

// emergentSurge is the emergent regression case: a warmed 0.7-utilization
// batch-simulated testbed and a real competing-job burst five minutes in.
const emergentSurge = `{
  "name": "emergent-inline",
  "seed": 13,
  "workload": {"tasks": 8, "duration": "5m"},
  "strategy": {"binding": "late", "pilots": 2, "resources": ["stampede", "comet"]},
  "testbed": {"sites": ["stampede", "comet"], "background_util": 0.7},
  "events": [{"at": "5m", "action": "queue-surge", "target": "stampede", "jobs": 4}]
}`

// TestRunEnvBackendParity is the scenario runner's backend property: every
// non-fleet example scenario, and an emergent testbed, gives DeepEqual job
// outcomes, applied timelines, dynamics counts and trace records on the
// local and the worker backend.
func TestRunEnvBackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	srcs := map[string]string{"emergent-inline": emergentSurge}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	for _, name := range slices.Sorted(maps.Keys(srcs)) {
		t.Run(name, func(t *testing.T) {
			s, err := ParseString(srcs[name])
			if err != nil {
				t.Fatal(err)
			}
			if s.Fleet != nil {
				t.Skip("fleet scenarios run only on the worker backend")
			}
			run := func(backend string) *Outcome {
				o, err := RunEnv(s, EnvOptions{Backend: backend})
				if err != nil {
					t.Fatalf("%s backend: %v", backend, err)
				}
				return o
			}
			local, worker := run("local"), run("worker")
			if !reflect.DeepEqual(local.Jobs, worker.Jobs) {
				t.Errorf("jobs diverge:\nlocal:  %+v\nworker: %+v", local.Jobs, worker.Jobs)
			}
			if !reflect.DeepEqual(local.Applied, worker.Applied) {
				t.Errorf("applied timelines diverge:\nlocal:  %v\nworker: %v", local.Applied, worker.Applied)
			}
			if local.PilotsLost != worker.PilotsLost || local.Rescheduled != worker.Rescheduled {
				t.Errorf("dynamics diverge: local %d lost/%d rescheduled, worker %d/%d",
					local.PilotsLost, local.Rescheduled, worker.PilotsLost, worker.Rescheduled)
			}
			if !reflect.DeepEqual(local.Recorder.Records(), worker.Recorder.Records()) {
				t.Errorf("traces diverge: local %d records, worker %d", local.Recorder.Len(), worker.Recorder.Len())
			}
			if s.Testbed.BackgroundUtil == 0 {
				return
			}
			// An emergent run is enacted on a warmed testbed and completes,
			// and its one event lands at the scheduled offset from
			// enactment, not from the warmup start.
			if j := local.Jobs[0]; j.State != "done" || j.Report.UnitsDone != s.Workload.Tasks {
				t.Fatalf("emergent job %s, report %+v", j.State, j.Report)
			}
			if first := local.Recorder.Records()[0].Time; first == 0 {
				t.Fatal("emergent job enacted at T=0: the testbed was not warmed")
			}
			if len(local.Applied) != 1 || local.Applied[0].At != sim.Time(s.Events[0].At) {
				t.Fatalf("emergent applied timeline %v, want one event at %s", local.Applied, s.Events[0].At.Std())
			}
		})
	}
}

// TestRunEnvRejects covers the env runner's refusal paths.
func TestRunEnvRejects(t *testing.T) {
	s, err := ParseString(fleetScenario)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunEnv(s, EnvOptions{Backend: "local"}); err == nil ||
		!strings.Contains(err.Error(), "worker backend") {
		t.Fatalf("fleet on local backend: %v", err)
	}
	if _, err := RunEnv(s, EnvOptions{Backend: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend: %v", err)
	}
}

// TestKillWorkerInBudget drives the fleet respawn contract end to end from
// a scenario file: six pinned jobs (four enacted, two queued), a virtual-
// time worker kill within the restart budget. The enacted jobs fail, the
// worker respawns, the queued descriptors replay and complete — all
// asserted through the scenario's own assertion battery.
func TestKillWorkerInBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	s, err := ParseString(`{
	  "name": "kill-in-budget",
	  "seed": 20260808,
	  "workload": {"tasks": 8, "duration": "5m"},
	  "strategy": {"binding": "late", "pilots": 2, "resources": ["stampede", "comet"]},
	  "testbed": {"sites": [
	    {"name": "stampede", "median_wait": "1m"},
	    {"name": "comet", "median_wait": "1m"}
	  ]},
	  "fleet": {"workers": 2, "endpoints": 1, "max_restarts": 1, "jobs": 6},
	  "events": [{"at": "4m", "action": "kill-worker", "target": "0"}],
	  "assertions": [
	    {"kind": "state", "want": "done", "count": 2},
	    {"kind": "state", "want": "failed", "count": 4},
	    {"kind": "fleet", "field": "restarts", "min": 1, "max": 1},
	    {"kind": "fleet", "field": "replayed", "min": 2, "max": 2},
	    {"kind": "report", "field": "units_done", "job": 4, "min": 8, "max": 8},
	    {"kind": "report", "field": "units_done", "job": 5, "min": 8, "max": 8}
	  ]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	o, err := RunEnv(s, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Assert(); err != nil {
		t.Fatal(err)
	}
	// The enacted jobs' failures name the shard, like any worker death.
	for i := 0; i < 4; i++ {
		if !strings.Contains(o.Jobs[i].Err, "s0") {
			t.Fatalf("job %d failure does not name the shard: %q", i, o.Jobs[i].Err)
		}
	}
}

// TestKillWorkerPastBudget is the containment half: with no restart budget
// a virtual-time kill fails the shard's jobs terminally — no respawn, no
// replay — and the assertions prove it.
func TestKillWorkerPastBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	s, err := ParseString(`{
	  "name": "kill-past-budget",
	  "seed": 909,
	  "workload": {"tasks": 8, "duration": "5m"},
	  "strategy": {"binding": "late", "pilots": 2, "resources": ["stampede", "comet"]},
	  "testbed": {"sites": [
	    {"name": "stampede", "median_wait": "1m"},
	    {"name": "comet", "median_wait": "1m"}
	  ]},
	  "fleet": {"workers": 2, "endpoints": 1, "max_restarts": 0, "jobs": 2},
	  "events": [{"at": "3m", "action": "kill-worker", "target": "0"}],
	  "assertions": [
	    {"kind": "state", "want": "failed", "count": 2},
	    {"kind": "state", "want": "done", "count": 0},
	    {"kind": "fleet", "field": "restarts", "max": 0},
	    {"kind": "fleet", "field": "replayed", "max": 0}
	  ]
	}`)
	if err != nil {
		t.Fatal(err)
	}
	o, err := RunEnv(s, EnvOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Assert(); err != nil {
		t.Fatal(err)
	}
	for i, j := range o.Jobs {
		if !strings.Contains(j.Err, "s0") {
			t.Fatalf("job %d terminal failure does not name the shard: %q", i, j.Err)
		}
	}
}

// TestFlapWANExpansion checks the flap-wan → degrade-wan cycle expansion
// the runners inject.
func TestFlapWANExpansion(t *testing.T) {
	s := &Scenario{
		Events: []Event{
			{At: Duration(60e9), Action: ActionFlapWAN, Target: "gordon",
				BandwidthFactor: 0.5, Duration: Duration(30e9), Cycles: 2, Period: Duration(120e9)},
			{At: 0, Action: ActionKillWorker},
		},
	}
	evs := s.testbedEvents()
	if len(evs) != 2 {
		t.Fatalf("expanded into %d events, want 2 degrade cycles (fleet event excluded)", len(evs))
	}
	for i, e := range evs {
		if e.Action != ActionDegradeWAN || e.BandwidthFactor != 0.5 || e.Duration != Duration(30e9) {
			t.Fatalf("cycle %d: %+v", i, e)
		}
		want := Duration(60e9) + Duration(i)*Duration(120e9)
		if e.At != want {
			t.Fatalf("cycle %d at %v, want %v", i, e.At.Std(), want.Std())
		}
	}
	// Defaults: 3 cycles, period 2x duration.
	s.Events[0].Cycles, s.Events[0].Period = 0, 0
	evs = s.testbedEvents()
	if len(evs) != 3 {
		t.Fatalf("default cycles: %d events, want 3", len(evs))
	}
	if evs[1].At != Duration(60e9)+2*Duration(30e9) {
		t.Fatalf("default period: second cycle at %v", evs[1].At.Std())
	}
}
