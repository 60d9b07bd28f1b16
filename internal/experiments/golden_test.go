package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aimes/internal/core"
	"aimes/internal/scenario"
	"aimes/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

const goldenPath = "testdata/golden.txt"

// TestPaperLock pins the paper's results and every scenario report across
// commits. Parity tests compare backends within one commit; this compares a
// commit against the committed golden, so a change that moves both backends
// the same way still fails. Two legs:
//
//   - the full Table I matrix (every size, DefaultReps repetitions) must pass
//     CheckShape, and each experiment × size hashes its runs' full-precision
//     Result fields (floats by their IEEE-754 bits, not the 1-decimal CSV);
//   - every non-fleet example scenario runs through scenario.RunEnv on the
//     local backend, hashing job states, reports and the full trace.
//
// A legitimate change of behaviour rewrites the golden with
// `go test ./internal/experiments -run TestPaperLock -update` and says why in
// CHANGES.md; a refactor must leave it untouched.
func TestPaperLock(t *testing.T) {
	got := make(map[string]string)

	results := RunAll(Matrix(TableI, Sizes, DefaultReps), 0)
	if violations := CheckShape(Aggregate(results)); len(violations) > 0 {
		t.Errorf("Table I shape violations: %v", violations)
	}
	byCell := make(map[string]*digest)
	for _, r := range results {
		key := fmt.Sprintf("table1 exp=%d n=%d", r.Exp, r.NTasks)
		d, ok := byCell[key]
		if !ok {
			d = newDigest()
			byCell[key] = d
		}
		d.result(r)
	}
	for key, d := range byCell {
		got[key] = d.sum()
	}

	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found (%v)", err)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Fleet != nil {
			continue
		}
		out, err := scenario.RunEnv(s, scenario.EnvOptions{Backend: "local"})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		d := newDigest()
		for _, j := range out.Jobs {
			d.str(j.State)
			d.str(j.Err)
			d.report(j.Report)
		}
		d.records(out.Recorder.Records())
		got["scenario "+filepath.Base(path)] = d.sum()
	}

	if *update {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	for _, key := range sortedKeys(got) {
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: not in %s (rerun with -update and say why in CHANGES.md)", key, goldenPath)
		case w != got[key]:
			t.Errorf("%s: digest %s, golden %s", key, got[key], w)
		}
	}
	for _, key := range sortedKeys(want) {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: in %s but no longer produced", key, goldenPath)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeGolden(t *testing.T, got map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# SHA-256 digests pinned by TestPaperLock; rewrite with -update.\n")
	for _, key := range sortedKeys(got) {
		fmt.Fprintf(&b, "%s %s\n", key, got[key])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// digest hashes values in a fixed, length-prefixed binary layout so no two
// different inputs can collide by concatenation.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) float(f float64) { d.int(int64(math.Float64bits(f))) }

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) result(r Result) {
	d.int(int64(r.Exp))
	d.str(r.Label)
	d.int(int64(r.NTasks))
	d.int(int64(r.Rep))
	for _, f := range []float64{r.TTC, r.Tw, r.Tx, r.Ts, r.Throughput, r.CoreHours, r.Efficiency} {
		d.float(f)
	}
	for _, n := range []int{r.UnitsDone, r.UnitsFailed, r.Restarts, r.ExtraPilots} {
		d.int(int64(n))
	}
	d.str(r.Err)
}

func (d *digest) report(r *core.Report) {
	if r == nil {
		d.int(-1)
		return
	}
	s := r.Strategy
	for _, n := range []int64{int64(s.Binding), int64(s.Scheduler), int64(s.Pilots), int64(s.PilotCores),
		int64(s.PilotWalltime), int64(s.EstTx), int64(s.EstTs), int64(s.EstTrp)} {
		d.int(n)
	}
	d.int(int64(len(s.Resources)))
	for _, res := range s.Resources {
		d.str(res)
	}
	for _, n := range []int64{int64(r.TTC), int64(r.Tw), int64(r.Tx), int64(r.Ts),
		int64(r.UnitsDone), int64(r.UnitsFailed), int64(r.UnitsCanceled), int64(r.TotalRestarts),
		int64(r.PilotsActivated), int64(r.ExtraPilots)} {
		d.int(n)
	}
	for _, f := range []float64{r.Throughput, r.CoreHours, r.BusyCoreHours, r.Efficiency} {
		d.float(f)
	}
	d.int(int64(len(r.PilotWaits)))
	for _, id := range sortedKeys(r.PilotWaits) {
		d.str(id)
		d.int(int64(r.PilotWaits[id]))
	}
	d.int(int64(len(r.UnitsByResource)))
	for _, res := range sortedKeys(r.UnitsByResource) {
		d.str(res)
		d.int(int64(r.UnitsByResource[res]))
	}
}

func (d *digest) records(recs []trace.Record) {
	d.int(int64(len(recs)))
	for _, r := range recs {
		d.int(int64(r.Time))
		d.str(r.Entity)
		d.str(r.State)
		d.str(r.Detail)
	}
}
