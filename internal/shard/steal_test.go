package shard

import "testing"

func TestStealerVictimPicksMostQueued(t *testing.T) {
	s := NewStealer(4)
	if v := s.Victim(-1); v != -1 {
		t.Fatalf("empty stealer victim = %d, want -1", v)
	}
	s.NoteQueued(1, 3)
	s.NoteQueued(3, 5)
	if v := s.Victim(-1); v != 3 {
		t.Fatalf("victim = %d, want 3", v)
	}
	if v := s.Victim(3); v != 1 {
		t.Fatalf("victim excluding 3 = %d, want 1", v)
	}
	s.NoteQueued(3, -5)
	s.NoteQueued(1, -3)
	if v := s.Victim(-1); v != -1 {
		t.Fatalf("drained stealer victim = %d, want -1", v)
	}
}

func TestStealerSealing(t *testing.T) {
	s := NewStealer(3)
	for k := 0; k < 3; k++ {
		if s.Sealed(k) {
			t.Fatalf("shard %d sealed at birth", k)
		}
	}
	s.Seal(1)
	if !s.Sealed(1) || s.Sealed(0) || s.Sealed(2) {
		t.Fatal("Seal(1) leaked to other shards or did not stick")
	}
}

func TestStealerCounters(t *testing.T) {
	s := NewStealer(2)
	s.CountMigration()
	s.CountMigration()
	s.CountForeignPump()
	if s.Migrations() != 2 || s.ForeignPumps() != 1 {
		t.Fatalf("counters = %d migrations, %d pumps", s.Migrations(), s.ForeignPumps())
	}
}

func TestShouldMigrateMargin(t *testing.T) {
	cases := []struct {
		origin, dest, cost float64
		want               bool
	}{
		{origin: 10, dest: 0, cost: 2, want: true},   // clear win
		{origin: 4, dest: 0, cost: 2, want: true},    // exactly at the margin
		{origin: 3, dest: 0, cost: 2, want: false},   // within one job of balance
		{origin: 10, dest: 10, cost: 2, want: false}, // balanced
		{origin: 2, dest: 0, cost: 0, want: true},    // zero cost clamps to 1
		{origin: 1, dest: 0, cost: 0, want: false},
	}
	for _, c := range cases {
		if got := ShouldMigrate(c.origin, c.dest, c.cost); got != c.want {
			t.Fatalf("ShouldMigrate(%v, %v, %v) = %v, want %v", c.origin, c.dest, c.cost, got, c.want)
		}
	}
	// Self-limiting: applying the verdict repeatedly converges instead of
	// ping-ponging a job between two shards forever.
	origin, dest, cost := 10.0, 0.0, 1.0
	for moves := 0; ; moves++ {
		if moves > 10 {
			t.Fatal("migration did not converge")
		}
		if !ShouldMigrate(origin, dest, cost) {
			if ShouldMigrate(dest, origin, cost) {
				t.Fatalf("ping-pong at origin=%v dest=%v", origin, dest)
			}
			break
		}
		origin -= cost
		dest += cost
	}
}

func TestStealerDestination(t *testing.T) {
	cases := []struct {
		name    string
		pending []float64
		sealed  []int
		origin  int
		cost    float64
		dest    int
		ok      bool
	}{
		{name: "least pending wins", pending: []float64{10, 5, 2, 7}, origin: 0, cost: 1, dest: 2, ok: true},
		{name: "origin skipped", pending: []float64{10, 5, 2, 7}, origin: 2, cost: 1, dest: 1, ok: false},
		{name: "sealed skipped", pending: []float64{10, 5, 2, 7}, sealed: []int{2}, origin: 0, cost: 1, dest: 1, ok: true},
		{name: "tie goes to lowest index", pending: []float64{10, 3, 3, 3}, origin: 0, cost: 1, dest: 1, ok: true},
		{name: "at the margin", pending: []float64{4, 0}, origin: 0, cost: 2, dest: 1, ok: true},
		{name: "within one job of balance", pending: []float64{3, 0}, origin: 0, cost: 2, dest: 1, ok: false},
		{name: "every other shard sealed", pending: []float64{10, 0, 0}, sealed: []int{1, 2}, origin: 0, cost: 1, dest: -1, ok: false},
		{name: "single shard", pending: []float64{10}, origin: 0, cost: 1, dest: -1, ok: false},
		{name: "sealed origin may still send", pending: []float64{10, 0}, sealed: []int{0}, origin: 0, cost: 1, dest: 1, ok: true},
	}
	for _, c := range cases {
		s := NewStealer(len(c.pending))
		for _, k := range c.sealed {
			s.Seal(k)
		}
		dest, ok := s.Destination(c.origin, c.cost, func(k int) float64 { return c.pending[k] })
		if dest != c.dest || ok != c.ok {
			t.Errorf("%s: Destination = (%d, %v), want (%d, %v)", c.name, dest, ok, c.dest, c.ok)
		}
	}
}

func TestNewStealerPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStealer(0) did not panic")
		}
	}()
	NewStealer(0)
}
