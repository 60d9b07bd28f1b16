package backend

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"aimes/internal/batch"
	"aimes/internal/core"
	"aimes/internal/site"
	"aimes/internal/skeleton"
	"aimes/internal/trace"
)

// writeFrame and readFrame are the tests' own hand-rolled framing around
// the binary codec, so the serve loop is exercised by a peer that shares no
// session-layer code with it. v is a *request or a *response.
func writeFrame(w io.Writer, v any) error {
	var body []byte
	var err error
	switch v := v.(type) {
	case *request:
		body, err = newBinaryCodec().AppendRequest(nil, v)
	case *response:
		body, err = newBinaryCodec().AppendResponse(nil, v)
	default:
		return fmt.Errorf("writeFrame: unsupported %T", v)
	}
	if err != nil {
		return err
	}
	return writePayload(w, body)
}

// writePayload frames an already-encoded payload — in any encoding, which
// is how tests play peers that do not speak the wire's codec.
func writePayload(w io.Writer, body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	_, err := w.Write(append(hdr[:], body...))
	return err
}

func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	switch v := v.(type) {
	case *request:
		return newBinaryCodec().DecodeRequest(body, v)
	case *response:
		return newBinaryCodec().DecodeResponse(body, v)
	}
	return fmt.Errorf("readFrame: unsupported %T", v)
}

func TestFrameRoundTrip(t *testing.T) {
	in := request{ID: 42, Op: opStep, Max: 64}
	buf := make([]byte, 4, 256)
	buf, err := newBinaryCodec().AppendRequest(buf, &in)
	if err != nil {
		t.Fatal(err)
	}
	if err := finishFrame(buf, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrameInto(bytes.NewReader(buf), nil, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	var out request
	if err := newBinaryCodec().DecodeRequest(payload, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %+v → %+v", in, out)
	}
	// A truncated stream surfaces as an error, not a hang or a zero value.
	if _, err := readFrameInto(bytes.NewReader(buf[:len(buf)-3]), nil, DefaultMaxFrame); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	// A corrupt length prefix is caught before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrameInto(bytes.NewReader(huge), nil, DefaultMaxFrame); err == nil || err == io.EOF {
		t.Fatalf("oversized frame length: got %v", err)
	}
	// The limit is configurable at transport construction; a frame over a
	// small limit fails on both the write and the read side. The limit sits
	// one byte under this payload, so the check is exact, not approximate.
	small := len(buf) - 4 - 1
	if err := finishFrame(buf, small); err == nil {
		t.Fatal("oversized frame encoded under a small limit")
	}
	if err := finishFrame(buf, DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrameInto(bytes.NewReader(buf), nil, small); err == nil {
		t.Fatal("oversized frame read under a small limit")
	}
}

func TestSiteWireRejectsCustomPolicy(t *testing.T) {
	cfgs := site.DefaultTestbed()
	for _, c := range cfgs {
		if _, err := siteToWire(c); err != nil {
			t.Fatalf("default testbed site %q does not cross the wire: %v", c.Name, err)
		}
	}
	c := cfgs[0]
	c.Policy = weirdPolicy{}
	if _, err := siteToWire(c); err == nil {
		t.Fatal("custom policy crossed the wire")
	}
	// Named policies round trip.
	c.Policy = batch.Conservative{}
	ws, err := siteToWire(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := wireToSite(ws)
	if err != nil {
		t.Fatal(err)
	}
	if back.Policy == nil || back.Policy.Name() != "conservative" {
		t.Fatalf("policy round trip lost the policy: %+v", back.Policy)
	}
}

type weirdPolicy struct{ batch.FCFS }

func (weirdPolicy) Name() string { return "weird" }

// collectSink records sink callbacks in order for assertions.
type collectSink struct {
	traces []trace.Record
	ns     []string
	done   map[int]*core.Report
}

func (s *collectSink) JobTrace(key int, ns string, rec trace.Record) {
	s.traces = append(s.traces, rec)
	s.ns = append(s.ns, ns)
}

func (s *collectSink) JobDone(key int, report *core.Report) {
	if s.done == nil {
		s.done = map[int]*core.Report{}
	}
	s.done[key] = report
}

// TestLocalBackendLifecycle drives a Local backend through the full seam:
// enact, step to completion, completion through the sink, then the
// incomplete diagnostic on an unknown key.
func TestLocalBackendLifecycle(t *testing.T) {
	sink := &collectSink{}
	l, err := NewLocal(Config{Shard: 1, Seed: 7}, sink)
	if err != nil {
		t.Fatal(err)
	}
	w, err := skeleton.Generate(skeleton.BagOfTasks(4, skeleton.Constant(60)), 7)
	if err != nil {
		t.Fatal(err)
	}
	en, err := l.Enact(&Descriptor{
		Key:          11,
		MigratedFrom: 0, // arrived via a handoff from shard 0
		Descriptor: core.Descriptor{
			Workload: w,
			Config:   core.StrategyConfig{Binding: core.LateBinding, Scheduler: core.SchedBackfill, Pilots: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if en.Namespace != "s1-j1" {
		t.Fatalf("namespace %q, want s1-j1", en.Namespace)
	}
	if en.Strategy.Pilots != 2 {
		t.Fatalf("strategy %+v", en.Strategy)
	}
	// The MIGRATED record precedes ENACTING, both already in the sink.
	if len(sink.traces) < 2 || sink.traces[0].State != trace.StateMigrated || sink.traces[1].State != "ENACTING" {
		t.Fatalf("enact trace prefix %+v", sink.traces[:min(3, len(sink.traces))])
	}
	for _, ns := range sink.ns {
		if ns != "s1-j1" {
			t.Fatalf("trace carried namespace %q", ns)
		}
	}
	for i := 0; i < 10000; i++ {
		if _, drained, err := l.Step(64); err != nil {
			t.Fatal(err)
		} else if drained {
			break
		}
	}
	r := sink.done[11]
	if r == nil {
		t.Fatal("no completion through the sink")
	}
	if r.UnitsDone != 4 {
		t.Fatalf("report %d units done, want 4", r.UnitsDone)
	}
	if err := l.Incomplete(99); err == nil || !strings.Contains(err.Error(), "99") {
		t.Fatalf("unknown-key diagnostic: %v", err)
	}
	if now, _ := l.Now(); now <= 0 {
		t.Fatalf("engine time %v after a full run", now)
	}
}

// TestServeProtocol runs the worker serve loop over in-memory pipes and
// checks init (refused, then corrected), enact, step-to-done, and close —
// the protocol exercised without processes.
func TestServeProtocol(t *testing.T) {
	cr, cw := io.Pipe() // client reads ← worker writes
	wr, ww := io.Pipe() // worker reads ← client writes
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(wr, cw) }()

	var id uint64
	call := func(req *request) *response {
		t.Helper()
		id++
		req.ID = id
		if err := writeFrame(ww, req); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := readFrame(cr, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != id {
			t.Fatalf("response %d for request %d", resp.ID, id)
		}
		return &resp
	}

	if resp := call(&request{Op: opStep, Max: 1}); resp.Err == "" {
		t.Fatal("operation before init succeeded")
	}
	// A refused init (here an unknown batch-policy name) is answered with a
	// descriptive error and leaves the host alive and uninitialized, so a
	// corrected init succeeds on the same stream.
	bad := &initConfig{Shard: 0, Seed: 42, Sites: []wireSite{{Name: "x", Nodes: 1, CoresPerNode: 1, PolicyName: "no-such-policy"}}}
	if resp := call(&request{Op: opInit, Init: bad}); !strings.Contains(resp.Err, "no-such-policy") {
		t.Fatalf("init with an unknown policy: err %q", resp.Err)
	}
	if resp := call(&request{Op: opStep, Max: 1}); resp.Err == "" {
		t.Fatal("operation after a refused init succeeded")
	}
	if resp := call(&request{Op: opInit, Init: &initConfig{Shard: 0, Seed: 42, DefTestb: true}}); resp.Err != "" {
		t.Fatalf("init: %s", resp.Err)
	}
	// Payload-carrying ops with the payload missing must answer with a
	// protocol error, not crash the worker.
	if resp := call(&request{Op: opEnact}); resp.Err == "" {
		t.Fatal("enact without a descriptor succeeded")
	}
	if resp := call(&request{Op: opDerive}); resp.Err == "" {
		t.Fatal("derive without a config succeeded")
	}
	if resp := call(&request{Op: opFeedback}); resp.Err == "" {
		t.Fatal("feedback without a report succeeded")
	}
	w, err := skeleton.Generate(skeleton.BagOfTasks(3, skeleton.Constant(30)), 1)
	if err != nil {
		t.Fatal(err)
	}
	resp := call(&request{Op: opEnact, Desc: &Descriptor{
		Key: 1, MigratedFrom: -1,
		Descriptor: core.Descriptor{
			Workload: w,
			Config:   core.StrategyConfig{Binding: core.EarlyBinding, Scheduler: core.SchedDirect, Pilots: 1},
		},
	}})
	if resp.Err != "" {
		t.Fatalf("enact: %s", resp.Err)
	}
	if resp.Enacted == nil || resp.Enacted.Namespace != "s0-j1" {
		t.Fatalf("enacted %+v", resp.Enacted)
	}
	sawEnacting := false
	for _, ev := range resp.Events {
		if ev.Kind == eventTrace && ev.Rec != nil && ev.Rec.State == "ENACTING" {
			sawEnacting = true
		}
	}
	if !sawEnacting {
		t.Fatal("enact response carried no ENACTING trace event")
	}
	var done *core.Report
	for i := 0; i < 10000 && done == nil; i++ {
		resp := call(&request{Op: opStep, Max: 64})
		if resp.Err != "" {
			t.Fatalf("step: %s", resp.Err)
		}
		for _, ev := range resp.Events {
			if ev.Kind == eventDone && ev.Key == 1 {
				done = ev.Report
			}
		}
		if resp.Drained {
			break
		}
	}
	if done == nil || done.UnitsDone != 3 {
		t.Fatalf("completion over the wire: %+v", done)
	}
	call(&request{Op: opClose})
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after close")
	}
}
