package aimes_test

import (
	"fmt"
	"log"

	"aimes"
)

// Example reproduces the README quickstart: a 128-task bag of tasks under
// the paper's best strategy (late binding, backfill, three pilots) on the
// simulated five-resource testbed.
func Example() {
	env, err := aimes.NewEnv(aimes.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	app := aimes.BagOfTasks(128, aimes.UniformDuration())
	report, err := env.RunApp(app, aimes.StrategyConfig{
		Binding:   aimes.LateBinding,
		Scheduler: aimes.SchedBackfill,
		Pilots:    3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d units done on %d pilots\n", report.UnitsDone, report.PilotsActivated)
	fmt.Printf("TTC %.0fs with Tw %.0fs\n", report.TTC.Seconds(), report.Tw.Seconds())
	// Output:
	// 128 units done on 3 pilots
	// TTC 1405s with Tw 78s
}

// ExampleEnvironment_Derive shows strategy derivation without enactment —
// the five decisions of the paper's Table I made explicit.
func ExampleEnvironment_Derive() {
	env, err := aimes.NewEnv(aimes.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	w, err := aimes.GenerateWorkload(aimes.BagOfTasks(2048, aimes.UniformDuration()), 7)
	if err != nil {
		log.Fatal(err)
	}
	s, err := env.Derive(w, aimes.StrategyConfig{
		Binding:        aimes.LateBinding,
		Scheduler:      aimes.SchedBackfill,
		Pilots:         3,
		Selection:      aimes.SelectFixed,
		FixedResources: []string{"stampede", "comet", "hopper"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d pilots × %d cores on %v\n", s.Pilots, s.PilotCores, s.Resources)
	// Output:
	// 3 pilots × 683 cores on [stampede comet hopper]
}

// ExampleBundle_Match exercises the discovery interface's requirement
// language over the default testbed.
func ExampleBundle_Match() {
	env, err := aimes.NewEnv(aimes.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	matched, err := env.Bundle().Match(`arch == "cray" || nodes < 300`)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range matched {
		fmt.Println(r.Name())
	}
	// Output:
	// blacklight
	// hopper
}
