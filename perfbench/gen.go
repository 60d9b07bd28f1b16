package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"aimes"
	"aimes/client"
	"aimes/internal/experiments"
)

// jobSpec is one generated job: a Table I experiment over a bag of tasks.
type jobSpec struct {
	exp  experiments.Definition
	size int
	slot int // index of size in sizeCycle
	w    *aimes.Workload

	// Open-loop (daemon-burst) fields.
	tenant int                   // 0: skewed, pinned to shard 0; 1: balanced
	follow bool                  // also follow the job's SSE event stream
	req    *client.SubmitRequest // the request body, workload as interchange JSON
}

// sizeCycle is one cycle of the paper's application sizes, capped at 256
// tasks so no single job dominates a segment. 64 appears twice so that the
// latency median falls inside a size class rather than on the boundary
// between two, where it would jump between them from run to run.
var sizeCycle = []int{8, 16, 32, 64, 64, 128, 256}

// poolCycles is how many shuffled cycles of Table I × sizeCycle one
// closed-loop job pool holds; clients cycle through their pool.
const poolCycles = 4

// genCycle draws one cycle: every Table I experiment at every size of
// sizeCycle once, in a seeded order, with task durations drawn from per-job
// seeds. Every cycle therefore holds the same amount of work; the seed
// changes order and durations only.
func genCycle(rng *rand.Rand) ([]*jobSpec, error) {
	var cycle []*jobSpec
	for _, def := range experiments.TableI {
		for i, n := range sizeCycle {
			cycle = append(cycle, &jobSpec{exp: def, size: n, slot: i})
		}
	}
	rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	for _, js := range cycle {
		w, err := aimes.GenerateWorkload(aimes.BagOfTasks(js.size, js.exp.Duration.Spec()), rng.Int63())
		if err != nil {
			return nil, fmt.Errorf("generating %d-task workload: %w", js.size, err)
		}
		js.w = w
	}
	return cycle, nil
}

// genClosed draws the two closed-loop clients' pools from seed. local-bot
// and worker-wire draw identical pools for the same seed.
func genClosed(seed int64) ([2][]*jobSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	var pools [2][]*jobSpec
	for k := range pools {
		for c := 0; c < poolCycles; c++ {
			cycle, err := genCycle(rng)
			if err != nil {
				return pools, err
			}
			pools[k] = append(pools[k], cycle...)
		}
	}
	return pools, nil
}

// genOpen draws the open-loop job stream from seed as a sequence of bursts,
// each one full cycle, so every burst carries the same work. Within a
// burst, each entry of sizeCycle is sent twice by each tenant (seeded which
// experiments), and the four jobs of one entry are also followed on SSE —
// a different entry in each of the len(sizeCycle) bursts the stream holds.
// Each job carries its submit request with the workload already in the
// middleware interchange format.
func genOpen(seed int64) ([]*jobSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	followed := rng.Perm(len(sizeCycle))
	var stream []*jobSpec
	for b := range sizeCycle {
		cycle, err := genCycle(rng)
		if err != nil {
			return nil, err
		}
		tenants := make([][]int, len(sizeCycle)) // per slot, one tenant per experiment
		for i := range tenants {
			tenants[i] = []int{0, 0, 1, 1}
			rng.Shuffle(4, func(x, y int) { tenants[i][x], tenants[i][y] = tenants[i][y], tenants[i][x] })
		}
		for _, js := range cycle {
			js.tenant = tenants[js.slot][js.exp.ID-1]
			js.follow = js.slot == followed[b]
			if err := js.encode(); err != nil {
				return nil, err
			}
		}
		stream = append(stream, cycle...)
	}
	return stream, nil
}

// encode builds the job's submit request for its tenant.
func (js *jobSpec) encode() error {
	var buf bytes.Buffer
	if err := js.w.WriteMiddlewareJSON(&buf); err != nil {
		return fmt.Errorf("encoding workload: %w", err)
	}
	js.req = &client.SubmitRequest{Workload: buf.Bytes(), Config: js.exp.StrategyConfig()}
	if js.tenant == 0 {
		js.req.Placement = client.PlacementString(aimes.PlacePinned)
		js.req.Shard = 0
		js.req.Migrate = client.MigrateString(aimes.MigrateAllow)
	} else {
		js.req.Placement = client.PlacementString(aimes.PlaceLeastLoaded)
	}
	return nil
}

// burstOffsets schedules n bursts at a mean period: burst i is due at
// (i + u) × period after the segment start, u uniform in [0, 0.25), so the
// count per segment and the mean rate are fixed while spacing varies.
func burstOffsets(rng *rand.Rand, n int, period time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()/4) * float64(period))
	}
	return out
}
