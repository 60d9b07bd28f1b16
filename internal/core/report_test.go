package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"aimes/internal/pilot"
	"aimes/internal/sim"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// componentSpans is the reference the unit manager's at-source spans are
// checked against: it replays a trace, and for every unit entity each
// EXECUTING / STAGING_* record opens a span that the entity's next record
// closes. Records before since are ignored.
func componentSpans(records []trace.Record, since sim.Time) (exec, stage []trace.Span) {
	perEntity := make(map[string][]trace.Record)
	for _, record := range records {
		if record.Time < since {
			continue
		}
		if len(record.Entity) < 5 || record.Entity[:5] != "unit." {
			continue
		}
		perEntity[record.Entity] = append(perEntity[record.Entity], record)
	}
	for _, records := range perEntity {
		sort.SliceStable(records, func(i, j int) bool { return records[i].Time < records[j].Time })
		for i, record := range records {
			if i+1 >= len(records) {
				continue
			}
			span := trace.Span{Start: record.Time, End: records[i+1].Time}
			switch record.State {
			case "EXECUTING":
				exec = append(exec, span)
			case "STAGING_INPUT", "STAGING_OUTPUT":
				stage = append(stage, span)
			}
		}
	}
	return exec, stage
}

// checkAgainstReplay asserts that a report's Tx and Ts equal the unions of
// the reference replay over the execution's own records, and, when the
// execution is at hand, that the unit manager closed exactly the replay's
// spans.
func checkAgainstReplay(t *testing.T, r *Report, exec *Execution, records []trace.Record, since sim.Time) {
	t.Helper()
	wantExec, wantStage := componentSpans(records, since)
	if len(wantExec) == 0 || len(wantStage) == 0 {
		t.Fatalf("replay found %d exec and %d staging spans; the case exercises nothing", len(wantExec), len(wantStage))
	}
	if want := trace.UnionDuration(wantExec).Duration(); r.Tx != want {
		t.Errorf("Tx = %v, replay union %v", r.Tx, want)
	}
	if want := trace.UnionDuration(wantStage).Duration(); r.Ts != want {
		t.Errorf("Ts = %v, replay union %v", r.Ts, want)
	}
	if exec == nil {
		return
	}
	gotExec, gotStage := exec.um.Spans()
	if !sameSpans(gotExec, wantExec) {
		t.Errorf("exec spans: %d at source, %d in replay, or different intervals", len(gotExec), len(wantExec))
	}
	if !sameSpans(gotStage, wantStage) {
		t.Errorf("staging spans: %d at source, %d in replay, or different intervals", len(gotStage), len(wantStage))
	}
}

// sameSpans compares two span lists as multisets.
func sameSpans(a, b []trace.Span) bool {
	norm := func(s []trace.Span) []trace.Span {
		c := append([]trace.Span(nil), s...)
		sort.Slice(c, func(i, j int) bool {
			if c[i].Start != c[j].Start {
				return c[i].Start < c[j].Start
			}
			return c[i].End < c[j].End
		})
		return c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// pollUntil runs fn every virtual minute until it returns true or exec is
// done.
func pollUntil(eng sim.Engine, exec *Execution, fn func() bool) {
	var poll func()
	poll = func() {
		if exec.Done() || fn() {
			return
		}
		eng.Schedule(time.Minute, poll)
	}
	eng.Schedule(time.Minute, poll)
}

func unitStates(exec *Execution) map[pilot.UnitState]int {
	n := make(map[pilot.UnitState]int)
	for _, u := range exec.Units() {
		n[u.State()]++
	}
	return n
}

func lateStrategy(t *testing.T, e *env, w *skeleton.Workload) Strategy {
	t.Helper()
	s, err := Derive(w, e.bndl, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 3, Selection: SelectRandom,
	}, e.mgr.rng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func gaussianWorkload(t *testing.T, n int, seed int64) *skeleton.Workload {
	t.Helper()
	w, err := skeleton.Generate(skeleton.BagOfTasks(n, skeleton.GaussianDuration()), seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSpansMatchReplayWithRestarts(t *testing.T) {
	e := newEnv(t, 31)
	e.mgr.cfg.UnitFailureProb = 0.4
	w := gaussianWorkload(t, 64, 31)
	rec := trace.NewRecorder()
	exec, err := e.mgr.ExecuteWith(w, lateStrategy(t, e, w), ExecOptions{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.mgr.WaitFor(exec)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalRestarts == 0 || r.UnitsFailed == 0 {
		t.Fatalf("restarts %d, failed %d: the case needs both", r.TotalRestarts, r.UnitsFailed)
	}
	checkAgainstReplay(t, r, exec, rec.Records(), exec.started)
}

func TestSpansMatchReplayOnCancel(t *testing.T) {
	e := newEnv(t, 32)
	w := gaussianWorkload(t, 64, 32)
	rec := trace.NewRecorder()
	exec, err := e.mgr.ExecuteWith(w, lateStrategy(t, e, w), ExecOptions{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(e.eng, exec, func() bool {
		n := unitStates(exec)
		if n[pilot.UnitDone] == 0 || n[pilot.UnitExecuting] == 0 {
			return false
		}
		exec.Cancel("test")
		return true
	})
	r, err := e.mgr.WaitFor(exec)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Canceled() || r.UnitsDone == 0 || r.UnitsCanceled == 0 {
		t.Fatalf("canceled %v, done %d, canceled units %d: want a mid-run cancel",
			exec.Canceled(), r.UnitsDone, r.UnitsCanceled)
	}
	checkAgainstReplay(t, r, exec, rec.Records(), exec.started)
}

func TestSpansMatchReplayAfterLostPilot(t *testing.T) {
	e := newEnv(t, 33)
	w := gaussianWorkload(t, 64, 33)
	rec := trace.NewRecorder()
	exec, err := e.mgr.ExecuteAdaptiveWith(w, lateStrategy(t, e, w), AdaptiveConfig{
		Patience: 24 * time.Hour, MaxExtraPilots: 1, ReplaceLostPilots: true,
	}, ExecOptions{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(e.eng, exec, func() bool {
		for _, u := range exec.Units() {
			if u.State() == pilot.UnitExecuting {
				return exec.PreemptPilot(u.Pilot().Resource(), "test")
			}
		}
		return false
	})
	r, err := e.mgr.WaitFor(exec)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExtraPilots == 0 || r.UnitsDone != 64 {
		t.Fatalf("extra pilots %d, done %d: want a replanned, completed run", r.ExtraPilots, r.UnitsDone)
	}
	if len(rec.ByState("REPLANNED")) == 0 {
		t.Fatal("no REPLANNED record")
	}
	checkAgainstReplay(t, r, exec, rec.Records(), exec.started)
}

// TestSpansMatchReplayForStagedRuns runs stages on the manager's shared
// recorder, so each stage's replay must see only its own slice of it.
func TestSpansMatchReplayForStagedRuns(t *testing.T) {
	e := newEnv(t, 34)
	w, err := skeleton.Generate(stagedApp(), 34)
	if err != nil {
		t.Fatal(err)
	}
	_, stages, err := e.mgr.ExecuteStaged(w, StrategyConfig{
		Binding: LateBinding, Scheduler: SchedBackfill, Pilots: 2, Selection: SelectRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	records := e.mgr.Recorder().Records()
	var bounds [][2]int
	for i, r := range records {
		switch {
		case r.Entity == "em" && r.State == "ENACTING":
			bounds = append(bounds, [2]int{i, -1})
		case r.Entity == "em" && r.State == "DONE":
			bounds[len(bounds)-1][1] = i
		}
	}
	if len(stages) != 2 || len(bounds) != len(stages) {
		t.Fatalf("%d stage reports, %d enactments in the shared trace", len(stages), len(bounds))
	}
	for i, r := range stages {
		own := records[bounds[i][0] : bounds[i][1]+1]
		checkAgainstReplay(t, r, nil, own, own[0].Time)
	}
}
