package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"aimes/client"
	"aimes/internal/backend"
	"aimes/internal/core"
	"aimes/internal/shard"
	"aimes/internal/trace"
)

// replayJobs is how many leading jobs of each client's pool the layer
// replay drives: two full cycles of Table I × sizeCycle.
const replayJobs = 2 * 4 * 7

// Step batch sizes the environment uses for local and worker shards.
const (
	localStep  = 64
	workerStep = 512
)

// replaySink is the replay's backend.Sink: it keeps each job's raw trace
// records and final report.
type replaySink struct {
	records map[int][]trace.Record
	reports map[int]*core.Report
	count   int
}

func newReplaySink() *replaySink {
	return &replaySink{records: map[int][]trace.Record{}, reports: map[int]*core.Report{}}
}

func (s *replaySink) JobTrace(key int, _ string, rec trace.Record) {
	s.records[key] = append(s.records[key], rec)
	s.count++
}

func (s *replaySink) JobDone(key int, r *core.Report) { s.reports[key] = r }

// replayStats are the per-layer figures of the layer replay.
type replayStats struct {
	jobs int

	// Simulation stack, in-process (backend.Local).
	deriveUs   []float64
	enactUs    []float64
	stepTotal  time.Duration
	events     int
	steps      int
	records    int
	spanAlgUs  float64
	transfers  int
	bytesMoved float64

	// Wire (backend.Worker over a byte-counting transport).
	wireJobs    int
	wireEnactUs []float64
	pingUs      []float64
	roundtrips  int
	wireOut     int64
	wireIn      int64
	workerCPU   time.Duration
	encodeUs    []float64
}

// replay drives the leading jobs of each pool through one shard backend per
// pool, shard k seeded as the environment seeds shard k: first in-process,
// then in a self-hosted worker process over the binary codec. Every call is
// timed from here.
func replay(seed int64, pools [2][]*jobSpec, tr *tracer) (*replayStats, error) {
	st := &replayStats{}
	for k, pool := range pools {
		if err := st.local(seed, k, pool[:min(replayJobs, len(pool))], tr); err != nil {
			return nil, err
		}
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("resolving the worker executable: %w", err)
	}
	for k, pool := range pools {
		if err := st.wire(self, seed, k, pool[:min(replayJobs, len(pool))], tr); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *replayStats) local(seed int64, k int, jobs []*jobSpec, tr *tracer) error {
	sink := newReplaySink()
	l, err := backend.NewLocal(backend.Config{Shard: k, Seed: shard.Seed(seed, k)}, sink)
	if err != nil {
		return fmt.Errorf("replay shard %d: %w", k, err)
	}
	defer l.Close()
	for i, js := range jobs {
		key := i + 1
		jobNo := k<<24 | key
		root := tr.open("replay.job", 0, jobNo)
		sp := tr.open("core.Derive", root.id, jobNo)
		t0 := time.Now()
		strat, err := l.Derive(js.w, js.exp.StrategyConfig())
		st.deriveUs = append(st.deriveUs, us(time.Since(t0)))
		tr.close(sp)
		if err != nil {
			return fmt.Errorf("replay derive: %w", err)
		}
		sp = tr.open("backend.Enact", root.id, jobNo)
		t0 = time.Now()
		_, err = l.Enact(&backend.Descriptor{Key: key, MigratedFrom: -1,
			Descriptor: core.Descriptor{Workload: js.w, Strategy: &strat}})
		st.enactUs = append(st.enactUs, us(time.Since(t0)))
		tr.close(sp)
		if err != nil {
			return fmt.Errorf("replay enact: %w", err)
		}
		for sink.reports[key] == nil {
			sp = tr.open("backend.Step", root.id, jobNo)
			t0 = time.Now()
			fired, drained, err := l.Step(localStep)
			st.stepTotal += time.Since(t0)
			tr.close(sp)
			if err != nil {
				return fmt.Errorf("replay step: %w", err)
			}
			st.steps++
			st.events += fired
			if drained && sink.reports[key] == nil {
				return fmt.Errorf("replay shard %d job %d: engine drained before completion: %v", k, key, l.Incomplete(key))
			}
		}
		if err := checkReport(sink.reports[key], js.w.TotalTasks()); err != nil {
			return fmt.Errorf("replay shard %d job %d: %w", k, key, err)
		}
		st.spanAlgebra(sink.records[key], root.id, jobNo, tr)
		delete(sink.records, key)
		tr.close(root)
		st.jobs++
	}
	st.records += sink.count
	for _, s := range l.Testbed().Sites() {
		st.transfers += s.Link().Completed()
		st.bytesMoved += s.Link().TotalBytes()
	}
	return nil
}

// spanAlgebra times the report's span algebra over one job's records: the
// execution spans of every unit and their union.
func (st *replayStats) spanAlgebra(recs []trace.Record, parent int64, jobNo int, tr *tracer) {
	rec := trace.NewRecorder()
	for _, r := range recs {
		rec.Record(r.Time, r.Entity, r.State, r.Detail)
	}
	sp := tr.open("trace.SpansBetween+Union", parent, jobNo)
	t0 := time.Now()
	_, _ = trace.Union(trace.SpansBetween(rec, "unit.", "EXECUTING", "DONE"))
	st.spanAlgUs += us(time.Since(t0))
	tr.close(sp)
}

func (st *replayStats) wire(self string, seed int64, k int, jobs []*jobSpec, tr *tracer) error {
	sink := newReplaySink()
	ct := &countingTransport{inner: &backend.ProcessTransport{Argv: []string{self}}}
	_, child0 := cpuTimes()
	w, err := backend.Connect(ct, backend.WorkerOptions{Codec: backend.CodecBinary},
		backend.Config{Shard: k, Seed: shard.Seed(seed, k)}, sink, nil)
	if err != nil {
		return fmt.Errorf("replay worker %d: %w", k, err)
	}
	out0, in0 := ct.out.Load(), ct.in.Load()
	werr := st.driveWorker(w, k, jobs, sink, tr)
	st.wireOut += ct.out.Load() - out0
	st.wireIn += ct.in.Load() - in0
	if err := w.Close(); err != nil && werr == nil {
		werr = fmt.Errorf("closing replay worker %d: %w", k, err)
	}
	_, child1 := cpuTimes()
	st.workerCPU += child1 - child0
	return werr
}

func (st *replayStats) driveWorker(w *backend.Worker, k int, jobs []*jobSpec, sink *replaySink, tr *tracer) error {
	for i, js := range jobs {
		key := i + 1
		jobNo := k<<24 | key
		root := tr.open("replay.wire.job", 0, jobNo)
		sp := tr.open("wire.Enact", root.id, jobNo)
		t0 := time.Now()
		_, err := w.Enact(&backend.Descriptor{Key: key, MigratedFrom: -1,
			Descriptor: core.Descriptor{Workload: js.w, Config: js.exp.StrategyConfig()}})
		st.wireEnactUs = append(st.wireEnactUs, us(time.Since(t0)))
		tr.close(sp)
		if err != nil {
			return fmt.Errorf("replay wire enact: %w", err)
		}
		st.roundtrips++
		for sink.reports[key] == nil {
			sp = tr.open("wire.Step", root.id, jobNo)
			_, drained, err := w.Step(workerStep)
			tr.close(sp)
			if err != nil {
				return fmt.Errorf("replay wire step: %w", err)
			}
			st.roundtrips++
			if drained && sink.reports[key] == nil {
				return fmt.Errorf("replay worker %d job %d: engine drained before completion", k, key)
			}
		}
		if err := checkReport(sink.reports[key], js.w.TotalTasks()); err != nil {
			return fmt.Errorf("replay worker %d job %d: %w", k, key, err)
		}
		delete(sink.records, key)
		sp = tr.open("wire.Ping", root.id, jobNo)
		t0 = time.Now()
		err = w.Ping()
		st.pingUs = append(st.pingUs, us(time.Since(t0)))
		tr.close(sp)
		if err != nil {
			return fmt.Errorf("replay wire ping: %w", err)
		}
		tr.close(root)
		st.wireJobs++
	}
	return nil
}

// encode times the client's request encoding — the workload to interchange
// JSON, then the submit body — for each job of the stream.
func (st *replayStats) encode(stream []*jobSpec, tr *tracer) error {
	for i, js := range stream[:min(replayJobs, len(stream))] {
		sp := tr.open("client.encode", 0, i+1)
		t0 := time.Now()
		var buf bytes.Buffer
		err := js.w.WriteMiddlewareJSON(&buf)
		if err == nil {
			_, err = json.Marshal(&client.SubmitRequest{Workload: buf.Bytes(), Config: js.exp.StrategyConfig()})
		}
		st.encodeUs = append(st.encodeUs, us(time.Since(t0)))
		tr.close(sp)
		if err != nil {
			return fmt.Errorf("encoding submit request: %w", err)
		}
	}
	return nil
}
