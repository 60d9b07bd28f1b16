package main

import (
	"encoding/json"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"aimes"
	"aimes/internal/backend"
	"aimes/internal/core"
	"aimes/internal/experiments"
)

const burnEnv = "PERFBENCH_TEST_BURN"

func TestMain(m *testing.M) {
	if os.Getenv(burnEnv) != "" {
		// Child of TestCPUIncludesReapedChildren: spin on the CPU briefly.
		end := time.Now().Add(150 * time.Millisecond)
		for time.Now().Before(end) {
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestNearestRankPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of {3,1,2} = %g, want 2", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("nearest-rank p50 of {1,2,3,4} = %g, want 2", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of {1,2,3,4} = %g, want 2.5", got)
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // rank 9990 leaves 10 beyond
		{9999, 99, true},    // rank 9990 leaves 9 beyond p99.9
		{1000, 99, true},    // rank 990 leaves 10 beyond
		{999, 95, true},     // rank 990 leaves 9 beyond p99
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
	} {
		p, ok := highestTail(c.n, 10)
		if p != c.want || ok != c.ok {
			t.Errorf("highestTail(%d, 10) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestOpenLoopTimesCountFromDue(t *testing.T) {
	due := time.Unix(1000, 0)
	// A generator that stalled 5ms sent late; the job's latency still
	// counts from when it was due.
	lat, lag := openLoopTimes(due, due.Add(5*time.Millisecond), due.Add(30*time.Millisecond))
	if lat != 30*time.Millisecond || lag != 5*time.Millisecond {
		t.Errorf("late send: latency %v lag %v, want 30ms 5ms", lat, lag)
	}
	lat, lag = openLoopTimes(due, due.Add(-time.Millisecond), due.Add(10*time.Millisecond))
	if lat != 10*time.Millisecond || lag != 0 {
		t.Errorf("early send: latency %v lag %v, want 10ms 0", lat, lag)
	}
}

func TestBurstOffsetsKeepRateAndCount(t *testing.T) {
	const period = 75 * time.Millisecond
	a := burstOffsets(rand.New(rand.NewSource(7)), 13, period)
	b := burstOffsets(rand.New(rand.NewSource(7)), 13, period)
	if len(a) != 13 {
		t.Fatalf("%d bursts, want 13", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("burst %d: %v vs %v for the same seed", i, a[i], b[i])
		}
		lo, hi := time.Duration(i)*period, time.Duration(i)*period+period/4
		if a[i] < lo || a[i] >= hi {
			t.Errorf("burst %d due at %v, outside its slot [%v, %v)", i, a[i], lo, hi)
		}
	}
}

func TestCPUIncludesReapedChildren(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	_, before := cpuTimes()
	cmd := exec.Command(self, "-test.run=^$")
	cmd.Env = append(os.Environ(), burnEnv+"=1")
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	_, after := cpuTimes()
	child := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if child < 100*time.Millisecond {
		t.Fatalf("child burned only %v of CPU", child)
	}
	// Rusage rounds to microseconds; the child's own accounting is the floor.
	if got := after - before; got < child-time.Millisecond {
		t.Errorf("children CPU grew by %v, want at least the reaped child's %v", got, child)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},  // grandchild
		{ID: 5, Parent: 1, Name: "b", Start: 90, End: 120}, // clipped at 100
	}
	want := map[string]struct{ count, total, self time.Duration }{
		"root": {1, 100, 100 - 50 - 10},
		"a":    {1, 30, 25},
		"b":    {2, 30 + 30, 60},
		"c":    {1, 5, 5},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("%d layers, want %d: %+v", len(got), len(want), got)
	}
	for _, lt := range got {
		w := want[lt.Name]
		if time.Duration(lt.Count) != w.count || lt.Total != w.total || lt.Self != w.self {
			t.Errorf("%s: count %d total %v self %v; want %d %v %v", lt.Name, lt.Count, lt.Total, lt.Self, w.count, w.total, w.self)
		}
	}
}

// pipeTransport serves each dialed session in-process over net.Pipe,
// counting the bytes the serving side reads and writes.
type pipeTransport struct {
	host   *countingTransport // only its counters are used
	served chan error
}

type pipeConn struct{ net.Conn }

func (c pipeConn) CloseWrite() error { return c.Close() }
func (c pipeConn) Kill() error       { return c.Close() }

func (t *pipeTransport) Dial(int, func(error)) (backend.Conn, error) {
	parent, child := net.Pipe()
	host := &countingConn{Conn: pipeConn{child}, t: t.host}
	go func() { t.served <- backend.Serve(host, host) }()
	return pipeConn{parent}, nil
}

func TestCountingTransportMatchesPipeSession(t *testing.T) {
	pt := &pipeTransport{host: &countingTransport{}, served: make(chan error, 1)}
	ct := &countingTransport{inner: pt}
	sink := newReplaySink()
	w, err := backend.Connect(ct, backend.WorkerOptions{Codec: backend.CodecBinary}, backend.Config{Seed: 3}, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := aimes.GenerateWorkload(aimes.BagOfTasks(8, aimes.UniformDuration()), 5)
	if err != nil {
		t.Fatal(err)
	}
	def := experiments.TableI[2]
	if _, err := w.Enact(&backend.Descriptor{Key: 1, MigratedFrom: -1,
		Descriptor: core.Descriptor{Workload: wl, Config: def.StrategyConfig()}}); err != nil {
		t.Fatal(err)
	}
	for sink.reports[1] == nil {
		if _, drained, err := w.Step(workerStep); err != nil || (drained && sink.reports[1] == nil) {
			t.Fatalf("step: drained %v err %v", drained, err)
		}
	}
	if err := checkReport(sink.reports[1], 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-pt.served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	out, in := ct.out.Load(), ct.in.Load()
	if out == 0 || in == 0 {
		t.Fatalf("counted %d bytes out, %d in", out, in)
	}
	if hin, hout := pt.host.in.Load(), pt.host.out.Load(); out != hin || in != hout {
		t.Errorf("parent wrote %d and read %d bytes; worker read %d and wrote %d", out, in, hin, hout)
	}
}

func TestPoolsHoldEqualWorkAcrossSeeds(t *testing.T) {
	tasks := func(seed int64) (n int, first []int) {
		pools, err := genClosed(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pools {
			for _, js := range p {
				n += js.w.TotalTasks()
				first = append(first, js.size)
			}
		}
		return n, first[:8]
	}
	n1, a := tasks(1)
	n1b, b := tasks(1)
	n2, _ := tasks(2)
	if n1 != n2 || n1 != n1b {
		t.Errorf("tasks per seed: %d, %d (seed 1 twice), %d (seed 2); want equal", n1, n1b, n2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 drew %v then %v", a, b)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	for i := range names {
		if i < len(workloads) && names[i] != workloads[i] {
			t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
