package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: a Submit, a Wait,
// an HTTP request, a backend step. Parent is the enclosing span's ID (0 at
// the root); Job ties the spans of one job together.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Job    int           `json:"job"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	id     int64
	parent int64
	name   string
	job    int
	start  time.Duration
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) open(name string, parent int64, job int) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return openSpan{id: id, parent: parent, name: name, job: job, start: time.Since(t.epoch)}
}

func (t *tracer) close(o openSpan) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Name: o.name, Job: o.job, Start: o.start, End: end})
	t.mu.Unlock()
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, us(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time child spans cover
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span, so
// overlapping children (concurrent HTTP streams of one job) count once.
func selfTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	cur := time.Duration(-1)
	for _, v := range ivs {
		if cur < 0 || v.a > end {
			if cur >= 0 {
				total += end - cur
			}
			cur, end = v.a, v.b
			continue
		}
		end = max(end, v.b)
	}
	if cur >= 0 {
		total += end - cur
	}
	return total
}
