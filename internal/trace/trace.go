// Package trace implements the self-introspection layer of the middleware:
// every pilot and unit state transition is reported to a Sink with a virtual
// timestamp, and span algebra (interval unions) turns per-unit state spans
// into the overlap-aware TTC decomposition of the paper's Figure 3, where
// TTC < Tw + Tx + Ts because the components overlap.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"aimes/internal/sim"
)

// Record is one timestamped state transition of a named entity.
type Record struct {
	Time   sim.Time `json:"time"`
	Entity string   `json:"entity"` // e.g. "pilot.stampede", "unit.0042"
	State  string   `json:"state"`  // e.g. "PENDING_ACTIVE", "EXECUTING"
	Detail string   `json:"detail,omitempty"`
}

// Sink receives state transitions as they happen. *Recorder keeps them; a
// shard backend passes one that forwards each record to its environment.
type Sink interface {
	Record(t sim.Time, entity, state, detail string)
}

// Recorder is the Sink that accumulates records in insertion order. It is
// not safe for concurrent use; in simulations all callbacks are serialized
// by the engine, and each simulation run owns its Recorder.
type Recorder struct {
	records []Record
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends a state transition at time t.
func (r *Recorder) Record(t sim.Time, entity, state, detail string) {
	r.records = append(r.records, Record{Time: t, Entity: entity, State: state, Detail: detail})
}

// Len reports the number of records.
func (r *Recorder) Len() int { return len(r.records) }

// Records returns the records in insertion order. The returned slice is the
// recorder's backing store; callers must not modify it.
func (r *Recorder) Records() []Record { return r.records }

// ByEntity returns all records for one entity, in time order.
func (r *Recorder) ByEntity(entity string) []Record {
	var out []Record
	for _, rec := range r.records {
		if rec.Entity == entity {
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// ByState returns all records with the given state, in time order.
func (r *Recorder) ByState(state string) []Record {
	var out []Record
	for _, rec := range r.records {
		if rec.State == state {
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// First returns the earliest record for (entity, state) and whether one exists.
func (r *Recorder) First(entity, state string) (Record, bool) {
	found := false
	var best Record
	for _, rec := range r.records {
		if rec.Entity == entity && rec.State == state {
			if !found || rec.Time < best.Time {
				best = rec
				found = true
			}
		}
	}
	return best, found
}

// WriteJSON streams the records as a JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.records)
}

// WriteCSV streams the records as CSV with a header row. Commas in details
// become semicolons; a field that still holds a comma, quote or line break
// (a task ID "a,b", a multi-line error) is quoted, so each record is one row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "entity", "state", "detail"}); err != nil {
		return err
	}
	for _, rec := range r.records {
		row := []string{fmt.Sprintf("%.3f", rec.Time.Seconds()), rec.Entity, rec.State,
			strings.ReplaceAll(rec.Detail, ",", ";")}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// StateMigrated is the execution-manager ("em") trace state recorded when a
// still-queued job is handed off to another simulation shard before
// enactment; the detail names the origin shard ("from s<k>"). It is the only
// record a job carries from before its enacting shard was decided.
const StateMigrated = "MIGRATED"

// QualifyEntity scopes a job's non-namespaced trace entities for an
// aggregate (multi-tenant) trace: with namespace "s0-j3", "em" becomes
// "em.s0-j3" and "unit.x" becomes "unit.s0-j3.x", so same-named units of
// different tenants never conflate. Pilot IDs already embed the namespace at
// the source (pilot.System.SetNamespace) and pass through unchanged.
func QualifyEntity(entity, ns string) string {
	const unit = "unit."
	switch {
	case entity == "em":
		return "em." + ns
	case strings.HasPrefix(entity, unit):
		return unit + ns + "." + entity[len(unit):]
	}
	return entity
}

// Span is a half-open interval [Start, End) in virtual time.
type Span struct {
	Start, End sim.Time
}

// Valid reports whether the span is well-formed (End >= Start).
func (s Span) Valid() bool { return s.End >= s.Start }

// Duration returns End - Start, or 0 for invalid spans.
func (s Span) Duration() sim.Time {
	if !s.Valid() {
		return 0
	}
	return s.End - s.Start
}

// Overlaps reports whether s and o share any point.
func (s Span) Overlaps(o Span) bool {
	return s.Start < o.End && o.Start < s.End
}

// Union merges spans into a minimal set of disjoint spans and returns the
// total covered time. Invalid and empty spans are ignored. This is how the
// paper's Tw, Tx and Ts are computed from per-entity spans so that
// concurrent activity is not double counted.
func Union(spans []Span) (merged []Span, total sim.Time) {
	var clean []Span
	for _, s := range spans {
		if s.Valid() && s.End > s.Start {
			clean = append(clean, s)
		}
	}
	if len(clean) == 0 {
		return nil, 0
	}
	sort.Slice(clean, func(i, j int) bool {
		if clean[i].Start != clean[j].Start {
			return clean[i].Start < clean[j].Start
		}
		return clean[i].End < clean[j].End
	})
	cur := clean[0]
	for _, s := range clean[1:] {
		if s.Start <= cur.End {
			if s.End > cur.End {
				cur.End = s.End
			}
			continue
		}
		merged = append(merged, cur)
		total += cur.Duration()
		cur = s
	}
	merged = append(merged, cur)
	total += cur.Duration()
	return merged, total
}

// UnionDuration returns just the covered time of Union.
func UnionDuration(spans []Span) sim.Time {
	_, total := Union(spans)
	return total
}

// Envelope returns the smallest span covering all valid spans, and false when
// there are none.
func Envelope(spans []Span) (Span, bool) {
	found := false
	var env Span
	for _, s := range spans {
		if !s.Valid() {
			continue
		}
		if !found {
			env = s
			found = true
			continue
		}
		if s.Start < env.Start {
			env.Start = s.Start
		}
		if s.End > env.End {
			env.End = s.End
		}
	}
	return env, found
}

// SpansBetween extracts, for every entity matching the prefix, the span from
// its first fromState record to its first toState record at or after it.
// Entities missing either state are skipped.
func SpansBetween(r *Recorder, entityPrefix, fromState, toState string) []Span {
	starts := map[string]sim.Time{}
	var order []string
	for _, rec := range r.records {
		if !strings.HasPrefix(rec.Entity, entityPrefix) || rec.State != fromState {
			continue
		}
		if _, ok := starts[rec.Entity]; !ok {
			starts[rec.Entity] = rec.Time
			order = append(order, rec.Entity)
		}
	}
	var spans []Span
	for _, entity := range order {
		from := starts[entity]
		best := sim.Forever
		for _, rec := range r.records {
			if rec.Entity == entity && rec.State == toState && rec.Time >= from && rec.Time < best {
				best = rec.Time
			}
		}
		if best != sim.Forever {
			spans = append(spans, Span{Start: from, End: best})
		}
	}
	return spans
}
