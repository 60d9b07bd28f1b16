package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"aimes/internal/sim"
)

func at(sec int) sim.Time { return sim.Time(time.Duration(sec) * time.Second) }

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record(at(1), "pilot.a", "NEW", "")
	r.Record(at(2), "pilot.a", "ACTIVE", "on stampede")
	r.Record(at(3), "unit.1", "EXECUTING", "")
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	recs := r.ByEntity("pilot.a")
	if len(recs) != 2 || recs[0].State != "NEW" || recs[1].State != "ACTIVE" {
		t.Fatalf("ByEntity = %+v", recs)
	}
	if got := r.ByState("EXECUTING"); len(got) != 1 || got[0].Entity != "unit.1" {
		t.Fatalf("ByState = %+v", got)
	}
}

func TestRecorderFirst(t *testing.T) {
	r := NewRecorder()
	r.Record(at(5), "unit.1", "DONE", "")
	r.Record(at(2), "unit.1", "DONE", "")
	rec, ok := r.First("unit.1", "DONE")
	if !ok || rec.Time != at(2) {
		t.Fatalf("First = %+v ok=%v, want time 2s", rec, ok)
	}
	if _, ok := r.First("unit.1", "MISSING"); ok {
		t.Fatal("First found a record that does not exist")
	}
}

func TestRecorderJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Record(at(1), "a", "S1", "d")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Record
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Entity != "a" || back[0].State != "S1" {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestRecorderCSV(t *testing.T) {
	r := NewRecorder()
	r.Record(at(1), "a", "S1", "x,y")
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s,entity,state,detail\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1.000,a,S1,x;y") {
		t.Fatalf("row not found or comma not escaped: %q", out)
	}
}

// TestRecorderCSVQuotesFields reads hostile fields back through a CSV
// reader: a task ID with a comma, a quote, or a line break, and a detail
// spanning lines, must each stay one field of one row.
func TestRecorderCSVQuotesFields(t *testing.T) {
	r := NewRecorder()
	r.Record(at(1), "unit.a,b", "EXECUTING", "")
	r.Record(at(2), `unit.say "hi"`, "DONE", "line one\nline two, with comma")
	r.Record(at(3), "unit.x\ny", "FAILED", `bad "input"`)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"time_s", "entity", "state", "detail"},
		{"1.000", "unit.a,b", "EXECUTING", ""},
		{"2.000", `unit.say "hi"`, "DONE", "line one\nline two; with comma"},
		{"3.000", "unit.x\ny", "FAILED", `bad "input"`},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %q, want %q", rows, want)
	}
}

func TestSpanBasics(t *testing.T) {
	s := Span{Start: at(1), End: at(3)}
	if !s.Valid() || s.Duration() != at(2) {
		t.Fatalf("span basics wrong: %+v", s)
	}
	bad := Span{Start: at(3), End: at(1)}
	if bad.Valid() || bad.Duration() != 0 {
		t.Fatal("invalid span not handled")
	}
	if !s.Overlaps(Span{Start: at(2), End: at(5)}) {
		t.Fatal("overlapping spans not detected")
	}
	if s.Overlaps(Span{Start: at(3), End: at(5)}) {
		t.Fatal("half-open spans should not overlap at the boundary")
	}
}

func TestUnionMergesOverlaps(t *testing.T) {
	spans := []Span{
		{at(0), at(10)},
		{at(5), at(15)},  // overlaps first
		{at(15), at(20)}, // adjacent: merges
		{at(30), at(40)}, // disjoint
		{at(7), at(7)},   // empty: ignored
		{at(9), at(2)},   // invalid: ignored
	}
	merged, total := Union(spans)
	if len(merged) != 2 {
		t.Fatalf("merged = %+v, want 2 spans", merged)
	}
	if merged[0].Start != at(0) || merged[0].End != at(20) {
		t.Fatalf("first merged span = %+v", merged[0])
	}
	if total != at(30) {
		t.Fatalf("total = %v, want 30s", total)
	}
}

func TestUnionEmpty(t *testing.T) {
	merged, total := Union(nil)
	if merged != nil || total != 0 {
		t.Fatal("empty union should be nil, 0")
	}
}

func TestEnvelope(t *testing.T) {
	env, ok := Envelope([]Span{{at(5), at(8)}, {at(1), at(3)}, {at(6), at(20)}})
	if !ok || env.Start != at(1) || env.End != at(20) {
		t.Fatalf("envelope = %+v ok=%v", env, ok)
	}
	if _, ok := Envelope(nil); ok {
		t.Fatal("empty envelope reported ok")
	}
}

func TestSpansBetween(t *testing.T) {
	r := NewRecorder()
	r.Record(at(0), "unit.1", "EXECUTING", "")
	r.Record(at(10), "unit.1", "DONE", "")
	r.Record(at(5), "unit.2", "EXECUTING", "")
	r.Record(at(12), "unit.2", "DONE", "")
	r.Record(at(7), "unit.3", "EXECUTING", "")  // never done: skipped
	r.Record(at(3), "pilot.a", "EXECUTING", "") // different prefix
	spans := SpansBetween(r, "unit.", "EXECUTING", "DONE")
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want 2", spans)
	}
	total := UnionDuration(spans)
	if total != at(12) {
		t.Fatalf("union duration = %v, want 12s", total)
	}
}

func TestSpansBetweenUsesFirstTransition(t *testing.T) {
	r := NewRecorder()
	r.Record(at(2), "unit.1", "EXECUTING", "")
	r.Record(at(4), "unit.1", "EXECUTING", "") // restart: first one counts
	r.Record(at(9), "unit.1", "DONE", "")
	spans := SpansBetween(r, "unit.", "EXECUTING", "DONE")
	if len(spans) != 1 || spans[0].Start != at(2) || spans[0].End != at(9) {
		t.Fatalf("spans = %+v", spans)
	}
}

// Property: union total never exceeds envelope length and never exceeds the
// sum of individual durations.
func TestUnionBoundsProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		var spans []Span
		var sum sim.Time
		for i := 0; i+1 < len(raw); i += 2 {
			s := Span{at(int(raw[i])), at(int(raw[i]) + int(raw[i+1]))}
			spans = append(spans, s)
			sum += s.Duration()
		}
		_, total := Union(spans)
		if total > sum {
			return false
		}
		env, ok := Envelope(spans)
		if !ok {
			return total == 0
		}
		return total <= env.Duration()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: union output spans are disjoint and sorted.
func TestUnionDisjointProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		var spans []Span
		for i := 0; i+1 < len(raw); i += 2 {
			spans = append(spans, Span{at(int(raw[i])), at(int(raw[i]) + int(raw[i+1]))})
		}
		merged, _ := Union(spans)
		if !sort.SliceIsSorted(merged, func(i, j int) bool { return merged[i].Start < merged[j].Start }) {
			return false
		}
		for i := 1; i < len(merged); i++ {
			if merged[i].Start <= merged[i-1].End {
				return false // must be strictly separated, else they'd merge
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ExampleUnion shows the overlap-aware span algebra behind the paper's
// Figure 3: concurrent activity is not double counted, so TTC < Tw+Tx+Ts.
func ExampleUnion() {
	spans := []Span{
		{Start: at(0), End: at(10)},
		{Start: at(5), End: at(15)}, // overlaps the first
		{Start: at(20), End: at(25)},
	}
	merged, total := Union(spans)
	fmt.Printf("%d disjoint spans covering %.0fs\n", len(merged), total.Seconds())
	// Output:
	// 2 disjoint spans covering 20s
}

func TestQualifyEntity(t *testing.T) {
	cases := map[string]string{
		"em":                  "em.s2-j7",
		"unit.task-0004":      "unit.s2-j7.task-0004",
		"pilot.comet.s2-j7-1": "pilot.comet.s2-j7-1", // already namespaced at source
		"pilot.stampede.3":    "pilot.stampede.3",
		"link.stampede":       "link.stampede",
	}
	for in, want := range cases {
		if got := QualifyEntity(in, "s2-j7"); got != want {
			t.Fatalf("QualifyEntity(%q) = %q, want %q", in, got, want)
		}
	}
}
