package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"aimes"
)

// digestJobs is how many leading jobs per client the report digest covers.
const digestJobs = 16

// closedRun drives local-bot or worker-wire: two clients in a closed loop,
// client k submitting only to shard k and waiting for each job before
// submitting the next.
type closedRun struct {
	kind   aimes.BackendKind
	seed   int64
	pools  [2][]*jobSpec
	cursor [2]int // next pool index per client; continues across segments

	// digestDue is set until the first timed segment has collected each
	// client's first digestJobs reports.
	digestDue bool

	latencies []float64 // ms, Submit call → Wait return, untraced segments
	prefix    [2][]*aimes.Report
	obs       observations
}

// envFor builds the workload's environment: two shards, pinned tenants,
// no stealing; worker-wire runs each shard in a self-hosted worker process
// over the binary codec.
func envFor(kind aimes.BackendKind, seed int64) (*aimes.Environment, error) {
	opts := []aimes.Option{aimes.WithSeed(seed), aimes.WithShards(2), aimes.WithBackend(kind)}
	if kind == aimes.BackendWorker {
		opts = append(opts, aimes.WithWireCodec(aimes.CodecBinary))
	}
	return aimes.NewEnv(opts...)
}

// segment runs one timed phase of length d on a fresh environment.
func (c *closedRun) segment(d time.Duration, tr *tracer) (*segment, error) {
	seg := &segment{}
	first := c.digestDue
	c.digestDue = false
	t0 := time.Now()
	env, err := envFor(c.kind, c.seed)
	if err != nil {
		return nil, fmt.Errorf("building %s environment: %w", c.kind, err)
	}
	seg.setup = time.Since(t0)

	m := startMeter(seg)
	deadline := m.t0.Add(d)
	var lats [2][]float64
	var failed [2]int
	var wg sync.WaitGroup
	for k := range c.pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats[k], failed[k] = c.client(env, k, deadline, tr, first)
		}()
	}
	wg.Wait()
	m.stop()
	if tr != nil {
		observeEnv(&c.obs, env, len(lats[0])+len(lats[1]))
	}
	if err := env.Close(); err != nil {
		return nil, fmt.Errorf("closing environment: %w", err)
	}
	m.stopChildren()
	seg.jobs = len(lats[0]) + len(lats[1])
	seg.failed = failed[0] + failed[1]
	if tr == nil {
		c.latencies = append(append(c.latencies, lats[0]...), lats[1]...)
	}
	return seg, nil
}

// client is one closed-loop client pinned to shard k. It returns the
// latencies of its checked jobs and how many failed.
func (c *closedRun) client(env *aimes.Environment, k int, deadline time.Time, tr *tracer, first bool) (lats []float64, failed int) {
	ctx := context.Background()
	for i := 0; time.Now().Before(deadline); i++ {
		js := c.pools[k][c.cursor[k]%len(c.pools[k])]
		c.cursor[k]++
		jobNo := k<<24 | c.cursor[k]
		root := tr.open("job", 0, jobNo)
		sub := tr.open("aimes.Submit", root.id, jobNo)
		t0 := time.Now()
		j, err := env.Submit(ctx, js.w, aimes.JobConfig{
			StrategyConfig: js.exp.StrategyConfig(),
			Placement:      aimes.PlacePinned,
			Shard:          k,
		})
		tr.close(sub)
		if err != nil {
			failed++
			c.obs.fail("client %d submit: %v", k, err)
			continue
		}
		wait := tr.open("aimes.Wait", root.id, jobNo)
		r, err := j.Wait(ctx)
		lat := time.Since(t0)
		tr.close(wait)
		if tr != nil {
			n := int64(0)
			for range j.Events() {
				n++
			}
			c.obs.mu.Lock()
			c.obs.events += n + j.EventsDropped()
			c.obs.dropped += j.EventsDropped()
			c.obs.traceJobs++
			c.obs.mu.Unlock()
		}
		tr.close(root)
		if err == nil && j.State() != aimes.JobDone {
			err = fmt.Errorf("job ended %s", j.State())
		}
		if err == nil {
			err = checkReport(r, js.w.TotalTasks())
		}
		if err != nil {
			failed++
			c.obs.fail("client %d job %d: %v", k, c.cursor[k], err)
			continue
		}
		c.obs.report(r, k)
		if first && i < digestJobs {
			c.prefix[k] = append(c.prefix[k], r)
		}
		lats = append(lats, ms(lat))
	}
	return lats, failed
}

// referenceDigest replays the digest prefix on the other backend — a fresh
// environment with the same seed, each client's first jobs pinned to its
// shard — and returns that digest.
func (c *closedRun) referenceDigest() (string, error) {
	other := aimes.BackendWorker
	if c.kind == aimes.BackendWorker {
		other = aimes.BackendLocal
	}
	env, err := envFor(other, c.seed)
	if err != nil {
		return "", fmt.Errorf("building %s reference environment: %w", other, err)
	}
	defer env.Close()
	var prefix [2][]*aimes.Report
	var errs [2]error
	var wg sync.WaitGroup
	for k := range prefix {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(c.prefix[k]); i++ {
				js := c.pools[k][i]
				j, err := env.Submit(context.Background(), js.w, aimes.JobConfig{
					StrategyConfig: js.exp.StrategyConfig(), Placement: aimes.PlacePinned, Shard: k,
				})
				if err == nil {
					var r *aimes.Report
					if r, err = j.Wait(context.Background()); err == nil {
						prefix[k] = append(prefix[k], r)
						continue
					}
				}
				errs[k] = fmt.Errorf("reference client %d job %d: %w", k, i, err)
				return
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	return digestOf(prefix)
}

func digestOf(prefix [2][]*aimes.Report) (string, error) {
	d := newDigest()
	for k, rs := range prefix {
		for i, r := range rs {
			if err := d.add(k, i, r); err != nil {
				return "", err
			}
		}
	}
	return d.sum(), nil
}
