// Package shard implements the placement layer of the sharded execution
// environment: policies that map submitted jobs onto parallel simulation
// shards, and the seed derivation that keeps every shard's randomness
// deterministic yet decorrelated.
//
// A shard is one complete, independent simulation stack — engine, testbed,
// bundle, SAGA session, pilot system — so jobs placed on different shards
// execute with no shared engine lock. The Environment owns the shards; this
// package owns the decision of which shard a job lands on.
package shard

import "fmt"

// Policy selects how jobs map onto shards.
type Policy int

const (
	// RoundRobin cycles submissions across shards in order (the default).
	// With a fixed submission sequence it is deterministic.
	RoundRobin Policy = iota
	// LeastLoaded places each job on the shard with the smallest effective
	// load — pending expected core-seconds weighted by the shard's observed
	// drain rate, not a raw in-flight task count — balancing heterogeneous
	// tenants at the cost of placement depending on completion timing.
	// Sealed shards are skipped unless every shard is sealed.
	LeastLoaded
	// Pinned places the job on an explicitly chosen shard. Tenants that need
	// cross-job determinism pin: same seed + same per-shard submission order
	// reproduces identical reports regardless of other shards' traffic.
	Pinned
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case Pinned:
		return "pinned"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Picker assigns jobs to shards under a policy. It is not safe for
// concurrent use; the environment calls Pick under its submission lock. The
// load callback may read concurrently-updated counters (e.g. atomics).
type Picker struct {
	n    int
	next int
}

// NewPicker returns a picker over n shards. n must be at least 1.
func NewPicker(n int) *Picker {
	if n < 1 {
		panic(fmt.Sprintf("shard: NewPicker(%d): need at least one shard", n))
	}
	return &Picker{n: n}
}

// Shards reports the number of shards the picker places onto.
func (p *Picker) Shards() int { return p.n }

// Pick returns the shard index for one submission. pinned is the requested
// shard for Pinned. For LeastLoaded, load reports the effective load of a
// shard and sealed whether a pinned tenant has closed it (Stealer.Sealed).
// The least-loaded unsealed shard wins, because a load-derived placement
// landing on a sealed shard would consume the pinned tenant's namespace
// sequence and randomness; the overall minimum wins only when every shard
// is sealed. Ties resolve to the lowest index. The caller fixes
// the load unit — the environment reports pending expected core-seconds
// divided by the shard's observed drain rate — and must make the
// pick-plus-reservation atomic under its submission lock: a picker that
// reads loads which only grow after the lock is released lets two
// concurrent submissions both land on the same "least loaded" shard.
func (p *Picker) Pick(policy Policy, pinned int, load func(int) float64, sealed func(int) bool) (int, error) {
	switch policy {
	case RoundRobin:
		k := p.next
		p.next = (p.next + 1) % p.n
		return k, nil
	case LeastLoaded:
		best, bestLoad, bestOpen := 0, 0.0, false
		for k := 0; k < p.n; k++ {
			l, open := load(k), !sealed(k)
			if k == 0 || open && !bestOpen || open == bestOpen && l < bestLoad {
				best, bestLoad, bestOpen = k, l, open
			}
		}
		return best, nil
	case Pinned:
		if pinned < 0 || pinned >= p.n {
			return 0, fmt.Errorf("shard: pinned shard %d out of range [0,%d)", pinned, p.n)
		}
		return pinned, nil
	}
	return 0, fmt.Errorf("shard: unknown placement policy %d", int(policy))
}

// seedStride decorrelates per-shard seeds: the 64-bit golden ratio, the
// standard Weyl-sequence increment (as in splitmix64).
const seedStride uint64 = 0x9E3779B97F4A7C15

// Seed derives shard k's base seed from the environment seed. Shard 0 keeps
// the base seed unchanged, so a single-shard environment reproduces the
// pre-sharding trajectories exactly; higher shards take distinct,
// deterministic offsets.
func Seed(base int64, k int) int64 {
	return base + int64(uint64(k)*seedStride)
}

// Namespace builds the shard-qualified job namespace "s<shard>-j<seq>" that
// scopes pilot IDs ("pilot.<resource>.s0-j3-1") and aggregate-trace entities.
// seq is the shard-local job sequence number, so a pinned tenant's namespaces
// — and therefore its pilot IDs and reports — do not depend on how much
// traffic other shards carry.
func Namespace(shard, seq int) string {
	return fmt.Sprintf("s%d-j%d", shard, seq)
}
