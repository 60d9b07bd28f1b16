// Out-of-process shards: the same multi-tenant environment as
// examples/concurrent, but every simulation shard runs as a child OS
// process (the worker backend) speaking a framed JSON protocol over stdio.
// The program self-hosts its workers — aimes.WorkerMain() at the top of
// main turns a spawned copy of this binary into a shard worker — so no
// separate aimes-worker binary is needed. A live trace subscription
// (Environment.Subscribe) streams every shard's pilot and unit transitions
// back into the parent, demonstrating that the aggregate trace is one
// environment-wide timeline no matter where shards execute.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"aimes"
)

func main() {
	// In a worker child this serves the shard protocol and never returns;
	// in the parent it arms self-hosted workers and falls through.
	aimes.WorkerMain()

	const workers = 2
	env, err := aimes.NewEnv(aimes.WithSeed(404), aimes.WithShards(workers),
		aimes.WithBackend(aimes.BackendWorker))
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	fmt.Printf("environment: %d shards on the %q backend\n", env.Shards(), env.Backend())

	// Live aggregate trace across all worker processes.
	sub := env.Subscribe(1 << 14)
	var pilotEvents, unitEvents int
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for r := range sub.C() {
			switch {
			case len(r.Entity) > 5 && r.Entity[:5] == "pilot":
				pilotEvents++
			case len(r.Entity) > 4 && r.Entity[:4] == "unit":
				unitEvents++
			}
		}
	}()

	cfg := aimes.StrategyConfig{
		Binding:   aimes.LateBinding,
		Scheduler: aimes.SchedBackfill,
		Pilots:    2,
	}
	const tenants = 4
	jobs := make([]*aimes.Job, tenants)
	for i := range jobs {
		w, err := aimes.GenerateWorkload(
			aimes.BagOfTasks(24+8*i, aimes.UniformDuration()), int64(700+i))
		if err != nil {
			log.Fatal(err)
		}
		// Round-robin placement spreads the tenants across the worker
		// processes; only the job descriptor crosses the pipe.
		if jobs[i], err = env.Submit(context.Background(), w, aimes.JobConfig{StrategyConfig: cfg}); err != nil {
			log.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *aimes.Job) {
			defer wg.Done()
			r, err := j.Wait(context.Background())
			if err != nil {
				log.Printf("tenant %d: %v", i, err)
				return
			}
			fmt.Printf("tenant %d on worker shard %d (%s): %d units in TTC %s\n",
				i, j.Shard(), j.Namespace(), r.UnitsDone, r.TTC)
		}(i, j)
	}
	wg.Wait()

	sub.Close()
	drain.Wait()
	fmt.Printf("live trace streamed %d pilot and %d unit transitions from %d worker processes (%d dropped)\n",
		pilotEvents, unitEvents, workers, sub.Dropped())
}
