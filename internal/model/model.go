// Package model is the analytical twin of the sharded scheduler: a
// per-shard cost model that predicts, from a job's expected demand and the
// shard's live backlog, how long the job will take to complete there — so
// predictive placement (PlacePredictive) can reason about execution instead
// of only reacting to it. Its other consumers only observe: the predicted
// completion recorded at enactment (Job.PredictedTTC) and the per-shard
// prediction-error and predicted-cost gauges.
//
// The model follows the closed-form cost vocabulary of pilot systems (P*: A
// Model of Pilot-Abstractions): a job's predicted completion decomposes into
// the pilot queue wait, the backlog drain ahead of it, and its own service
// time at the shard's effective drain rate. Every parameter is fitted online
// from completed-job observations — an exponentially weighted moving average
// per shard — and seeded from static defaults, so a shard with zero
// completions is still rankable against its warmed-up peers.
//
// All quantities live in virtual time (the simulation's clock), which makes
// the twin backend-agnostic: a local shard and a worker shard running the
// same trajectory fit the same parameters. Fidelity against the simulator is
// enforced in CI (cmd/model-check, TestModelFidelity) via the committed
// MODEL_baseline.json threshold, so the twin cannot silently drift from the
// scheduler it mirrors.
package model

import (
	"fmt"
	"math"
	"sync/atomic"
)

// alpha is the EWMA gain: each observation contributes a quarter of the new
// estimate, so the fit follows workload shifts within a handful of
// completions without whipsawing on a single outlier.
const alpha = 0.25

// The cold-start fit applied to every shard before it has completed a job.
// The values are deliberately conservative: they make a cold shard rankable
// against warm peers (it competes on backlog, not on an invented speed
// advantage) and they reproduce least-loaded placement exactly until real
// observations arrive — the reactive heuristic is the model's degenerate
// case.
const (
	// seedRate is the assumed effective drain rate in core-seconds of demand
	// retired per virtual second. 1.0 means backlog drains in real (virtual)
	// time: with every shard at the seed, predicted completions rank shards
	// purely by pending cost.
	seedRate = 1.0
	// seedWait is the assumed pilot queue wait in virtual seconds, mirroring
	// the simulator's 30-minute median site wait.
	seedWait = 1800
	// seedCost is the assumed demand of a typical job in core-seconds (the
	// 64-unit × 15-minute reference workload at 1 core per unit).
	seedCost = 64 * 15 * 60
)

// minCost floors job demand (core-seconds) so zero-cost descriptors cannot
// produce zero service times or division blowups.
const minCost = 1e-3

// fit is one shard's parameter set. Writers (Observe) for a given shard run
// under that shard's engine serialization; readers are lock-free atomic
// loads from any goroutine, so placement pre-checks never contend on a lock.
type fit struct {
	n      atomic.Int64  // completed-job observations
	rate   atomic.Uint64 // effective drain rate, core-seconds per virtual second (Float64bits)
	wait   atomic.Uint64 // queue wait before first activation, virtual seconds
	cost   atomic.Uint64 // mean observed job demand, core-seconds
	relErr atomic.Uint64 // EWMA of |predicted-observed|/observed per job
}

func (f *fit) load(a *atomic.Uint64) float64     { return math.Float64frombits(a.Load()) }
func (f *fit) store(a *atomic.Uint64, v float64) { a.Store(math.Float64bits(v)) }

// ewma folds one observation into an estimate.
func ewma(old, obs float64) float64 { return (1-alpha)*old + alpha*obs }

// CostModel is the analytical twin: per-shard EWMA fits plus the prediction
// arithmetic. Observe for one shard must be externally serialized (the
// environment calls it under the shard's engine serialization); everything
// else is safe for concurrent lock-free use.
type CostModel struct {
	fits []fit
}

// New builds a model over the given number of shards, every fit at the
// cold-start seed.
func New(shards int) *CostModel {
	if shards < 1 {
		panic(fmt.Sprintf("model: New with %d shards: need at least one", shards))
	}
	m := &CostModel{fits: make([]fit, shards)}
	for k := range m.fits {
		f := &m.fits[k]
		f.store(&f.rate, seedRate)
		f.store(&f.wait, seedWait)
		f.store(&f.cost, seedCost)
	}
	return m
}

// Observation is one completed job's measured outcome, fed back into the
// shard's fit. All times are virtual seconds.
type Observation struct {
	// Shard is the shard the job completed on.
	Shard int
	// Cost is the job's expected demand in core-seconds (Σ duration × cores
	// over the workload) — the same a-priori signal placement reserved.
	Cost float64
	// Wait is the observed queue wait (Tw: enactment to first pilot
	// activation).
	Wait float64
	// TTC is the observed time-to-completion (enactment start to last unit
	// terminal). Wait is contained in it.
	TTC float64
	// Predicted is the completion time the model predicted when the job was
	// enacted (0 when no prediction was recorded); it feeds the
	// prediction-error gauge, never the fits.
	Predicted float64
}

// Observe folds one completed job into its shard's fit. Calls for the same
// shard must be serialized by the caller; calls for different shards may
// race freely (fits are independent).
func (m *CostModel) Observe(o Observation) {
	if o.Shard < 0 || o.Shard >= len(m.fits) || o.TTC <= 0 {
		return
	}
	f := &m.fits[o.Shard]
	cost := o.Cost
	if cost < minCost {
		cost = minCost
	}
	if o.Wait >= 0 && o.Wait <= o.TTC {
		f.store(&f.wait, ewma(f.load(&f.wait), o.Wait))
		if exec := o.TTC - o.Wait; exec > 0 {
			f.store(&f.rate, ewma(f.load(&f.rate), cost/exec))
		}
	}
	f.store(&f.cost, ewma(f.load(&f.cost), cost))
	if o.Predicted > 0 {
		rel := math.Abs(o.Predicted-o.TTC) / o.TTC
		if f.n.Load() == 0 {
			f.store(&f.relErr, rel)
		} else {
			f.store(&f.relErr, ewma(f.load(&f.relErr), rel))
		}
	}
	f.n.Add(1)
}

// Prediction is one placement's predicted completion, decomposed into the
// terms of the pilot cost vocabulary. All values are virtual seconds.
type Prediction struct {
	// Wait is the fitted queue wait before the job's first pilot activates.
	Wait float64
	// Queue is the drain time of the backlog ahead of the job (the pending
	// work the shard has already accepted).
	Queue float64
	// Service is the job's own demand at the shard's effective drain rate.
	Service float64
	// Total is Wait + Queue + Service.
	Total float64
}

// Predict returns the predicted completion of placing a job of the given
// demand (core-seconds) on shard k with the given backlog (pending
// core-seconds already accepted, excluding this job). Out-of-range shards
// predict +Inf, so they always rank last.
func (m *CostModel) Predict(k int, cost, pending float64) Prediction {
	if k < 0 || k >= len(m.fits) {
		return Prediction{Wait: math.Inf(1), Total: math.Inf(1)}
	}
	f := &m.fits[k]
	rate := f.load(&f.rate)
	if rate < minCost {
		rate = minCost
	}
	if cost < minCost {
		cost = minCost
	}
	if pending < 0 {
		pending = 0
	}
	p := Prediction{
		Wait:    f.load(&f.wait),
		Queue:   pending / rate,
		Service: cost / rate,
	}
	p.Total = p.Wait + p.Queue + p.Service
	return p
}

// RelError returns shard k's EWMA of relative prediction error
// (|predicted − observed| / observed per completed job), or 0 before any
// prediction has been scored.
func (m *CostModel) RelError(k int) float64 {
	if k < 0 || k >= len(m.fits) {
		return 0
	}
	f := &m.fits[k]
	return f.load(&f.relErr)
}

// TypicalCost returns shard k's fitted mean job demand (core-seconds) — the
// seed value until the shard completes a job. Monitoring uses it to render a
// comparable "predicted cost of the next typical job" per shard.
func (m *CostModel) TypicalCost(k int) float64 {
	if k < 0 || k >= len(m.fits) {
		return seedCost
	}
	return m.fits[k].load(&m.fits[k].cost)
}

// ShardModel is one shard's fit snapshot (see Snapshot).
type ShardModel struct {
	Shard        int
	Observations int64
	Rate         float64 // core-seconds per virtual second
	Wait         float64 // virtual seconds
	Cost         float64 // mean observed demand, core-seconds
	RelError     float64
}

// Snapshot returns every shard's current fit.
func (m *CostModel) Snapshot() []ShardModel {
	out := make([]ShardModel, len(m.fits))
	for k := range m.fits {
		f := &m.fits[k]
		out[k] = ShardModel{
			Shard:        k,
			Observations: f.n.Load(),
			Rate:         f.load(&f.rate),
			Wait:         f.load(&f.wait),
			Cost:         f.load(&f.cost),
			RelError:     f.load(&f.relErr),
		}
	}
	return out
}
