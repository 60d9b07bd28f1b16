package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"aimes"
)

// segment is one timed phase on a freshly built environment. A run is a
// sequence of segments; building a fresh environment per segment bounds the
// memory the finished-job trace retention can pin, and the per-segment
// figures give the run its medians.
type segment struct {
	setup  time.Duration // until the first submit was possible
	wall   time.Duration // the timed phase
	jobs   int           // completed and checked
	failed int           // failed, refused, canceled or violating

	cpuSelf, cpuChildren time.Duration
	mallocs, bytes       uint64
	retained             int64 // heap-after-GC growth over the timed phase

	gcCPU, busyCPU float64 // runtime/metrics CPU seconds
	gcCycles       uint64
	heapPeak       uint64
}

// runtime/metrics read around each timed phase.
var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

// meter brackets a timed phase: start after set-up, stop when the last job
// is final, children once the environment (and its workers) closed.
type meter struct {
	seg      *segment
	t0       time.Time
	self0    time.Duration
	child0   time.Duration
	ms0      runtime.MemStats
	rt0      []metrics.Sample
	peakStop chan struct{}
	peakDone sync.WaitGroup
}

func readRT() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	if s.Value.Kind() == metrics.KindUint64 {
		return float64(s.Value.Uint64())
	}
	return 0
}

// startMeter collects garbage so the baseline heap is live data only, then
// snapshots counters and starts polling the heap for its peak.
func startMeter(seg *segment) *meter {
	runtime.GC()
	m := &meter{seg: seg, peakStop: make(chan struct{})}
	runtime.ReadMemStats(&m.ms0)
	m.rt0 = readRT()
	m.peakDone.Add(1)
	go m.pollPeak()
	m.self0, m.child0 = cpuTimes()
	m.t0 = time.Now()
	return m
}

func (m *meter) pollPeak() {
	defer m.peakDone.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		m.seg.heapPeak = max(m.seg.heapPeak, s[0].Value.Uint64())
		select {
		case <-m.peakStop:
			return
		case <-tick.C:
		}
	}
}

// stop ends the timed phase: wall clock, own CPU, allocation counters and
// runtime CPU classes, then the live heap after a collection.
func (m *meter) stop() {
	seg := m.seg
	seg.wall = time.Since(m.t0)
	self, _ := cpuTimes()
	seg.cpuSelf = self - m.self0
	close(m.peakStop)
	m.peakDone.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	seg.mallocs = ms.Mallocs - m.ms0.Mallocs
	seg.bytes = ms.TotalAlloc - m.ms0.TotalAlloc
	rt := readRT()
	busy := func(s []metrics.Sample) float64 { return rtFloat(s[1]) - rtFloat(s[2]) }
	seg.gcCPU = rtFloat(rt[0]) - rtFloat(m.rt0[0])
	seg.busyCPU = busy(rt) - busy(m.rt0)
	seg.gcCycles = rt[3].Value.Uint64() - m.rt0[3].Value.Uint64()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	seg.retained = int64(ms.HeapAlloc) - int64(m.ms0.HeapAlloc)
}

// stopChildren adds the CPU of worker processes reaped since the meter
// started; call it after the environment closed.
func (m *meter) stopChildren() {
	_, child := cpuTimes()
	m.seg.cpuChildren = child - m.child0
}

func (s *segment) cpuPerJob() time.Duration {
	return (s.cpuSelf + s.cpuChildren) / time.Duration(max(s.jobs, 1))
}

// observations are the per-layer counts taken from the workload itself.
type observations struct {
	mu        sync.Mutex
	reports   int
	units     int
	pilots    int
	restarts  int
	events    int64
	dropped   int64
	byShard   [2]int
	records   int // aggregate trace records, traced segments
	recJobs   int
	relErr    []float64
	traceJobs int

	migrations, vetoed, foreignPumps int64
	peakWindow                       int
	errs                             []string
}

func (o *observations) report(r *aimes.Report, shard int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.reports++
	o.units += r.UnitsDone + r.UnitsFailed + r.UnitsCanceled
	o.pilots += r.PilotsActivated
	o.restarts += r.TotalRestarts
	if shard >= 0 && shard < len(o.byShard) {
		o.byShard[shard]++
	}
}

func (o *observations) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// observeEnv reads the environment-level layer counters after a traced
// segment: aggregate trace size, stealing activity and model error.
func observeEnv(o *observations, env *aimes.Environment, jobs int) {
	recs := env.Recorder().Len()
	st := env.StealStats()
	var relErr float64
	loads := env.Loads()
	for _, l := range loads {
		relErr += l.ModelError
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.records += recs
	o.recJobs += jobs
	o.relErr = append(o.relErr, relErr/float64(max(len(loads), 1)))
	o.migrations += st.Migrations
	o.vetoed += st.Vetoed
	o.foreignPumps += st.ForeignPumps
	for _, w := range st.PeakWindows {
		o.peakWindow = max(o.peakWindow, w)
	}
}
