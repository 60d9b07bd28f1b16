package shard

import (
	"strings"
	"testing"
)

func TestRoundRobinCycles(t *testing.T) {
	p := NewPicker(3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		k, err := p.Pick(RoundRobin, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if k != w {
			t.Fatalf("pick %d = shard %d, want %d", i, k, w)
		}
	}
}

func TestLeastLoadedPicksMinimumWithLowIndexTies(t *testing.T) {
	p := NewPicker(4)
	loads := []float64{5, 2, 2, 7}
	k, err := p.Pick(LeastLoaded, 0, func(i int) float64 { return loads[i] }, noneSealed)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("least-loaded picked %d, want 1 (lowest-index tie)", k)
	}
	loads[1] = 9
	if k, _ = p.Pick(LeastLoaded, 0, func(i int) float64 { return loads[i] }, noneSealed); k != 2 {
		t.Fatalf("least-loaded picked %d, want 2", k)
	}
}

func noneSealed(int) bool { return false }

func TestLeastLoadedSkipsSealedShards(t *testing.T) {
	p := NewPicker(4)
	loads := []float64{0, 3, 1, 2}
	sealed := []bool{true, false, true, false}
	isSealed := func(i int) bool { return sealed[i] }
	k, err := p.Pick(LeastLoaded, 0, func(i int) float64 { return loads[i] }, isSealed)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Fatalf("least-loaded picked %d, want 3 (least-loaded unsealed shard)", k)
	}
	sealed = []bool{true, true, true, true}
	if k, _ = p.Pick(LeastLoaded, 0, func(i int) float64 { return loads[i] }, isSealed); k != 0 {
		t.Fatalf("all sealed: least-loaded picked %d, want the overall minimum 0", k)
	}
	sealed = []bool{true, false, false, true}
	loads = []float64{0, 4, 4, 0}
	if k, _ = p.Pick(LeastLoaded, 0, func(i int) float64 { return loads[i] }, isSealed); k != 1 {
		t.Fatalf("least-loaded picked %d, want 1 (lowest-index unsealed tie)", k)
	}
}

func TestLeastLoadedDoesNotAdvanceRoundRobin(t *testing.T) {
	p := NewPicker(2)
	if _, err := p.Pick(LeastLoaded, 0, func(int) float64 { return 0 }, noneSealed); err != nil {
		t.Fatal(err)
	}
	if k, _ := p.Pick(RoundRobin, 0, nil, nil); k != 0 {
		t.Fatalf("least-loaded pick consumed the round-robin cursor (next = %d)", k)
	}
}

func TestStealerVetoCounter(t *testing.T) {
	s := NewStealer(2)
	if s.Vetoes() != 0 {
		t.Fatalf("fresh stealer has %d vetoes", s.Vetoes())
	}
	s.CountVeto()
	s.CountVeto()
	if s.Vetoes() != 2 {
		t.Fatalf("vetoes = %d, want 2", s.Vetoes())
	}
	if s.Migrations() != 0 {
		t.Fatal("vetoes leaked into the migration counter")
	}
}

func TestPinnedValidatesRange(t *testing.T) {
	p := NewPicker(2)
	if k, err := p.Pick(Pinned, 1, nil, nil); err != nil || k != 1 {
		t.Fatalf("pinned pick = %d, %v", k, err)
	}
	for _, bad := range []int{-1, 2, 99} {
		if _, err := p.Pick(Pinned, bad, nil, nil); err == nil {
			t.Fatalf("pinned shard %d accepted", bad)
		}
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	p := NewPicker(2)
	if _, err := p.Pick(Policy(42), 0, nil, nil); err == nil || !strings.Contains(err.Error(), "unknown placement") {
		t.Fatalf("unknown policy error = %v", err)
	}
}

func TestNewPickerPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPicker(0) did not panic")
		}
	}()
	NewPicker(0)
}

func TestSeedDerivation(t *testing.T) {
	const base = 42
	if Seed(base, 0) != base {
		t.Fatalf("shard 0 seed %d, want the base seed %d", Seed(base, 0), base)
	}
	seen := map[int64]int{}
	for k := 0; k < 64; k++ {
		s := Seed(base, k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d share seed %d", prev, k, s)
		}
		seen[s] = k
	}
}

func TestNamespaceFormat(t *testing.T) {
	if ns := Namespace(0, 1); ns != "s0-j1" {
		t.Fatalf("Namespace(0,1) = %q", ns)
	}
	if ns := Namespace(3, 17); ns != "s3-j17" {
		t.Fatalf("Namespace(3,17) = %q", ns)
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		RoundRobin: "round-robin", LeastLoaded: "least-loaded", Pinned: "pinned",
	} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}
