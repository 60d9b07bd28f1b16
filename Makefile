GO ?= go

.PHONY: build test race vet lint perfbench-test bench bench-check bench-baseline bench-drift model-check scenarios scenario-matrix smoke worker-smoke worker-tcp-smoke server-smoke fleet-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting + vet. CI layers staticcheck on top of this.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# The perfbench harness is a nested module over the public API that
# `go test ./...` from the root never compiles: vet and test it on its own
# so an API change cannot silently break the benchmark.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Runs every benchmark once. BenchmarkConcurrentJobs sweeps shard counts
# {1, 2, GOMAXPROCS} and writes the perf-trajectory record BENCH_jobs.json,
# anchored at the repo root no matter which package directory go test uses
# (see benchJobsPath in bench_test.go; AIMES_BENCH_OUT overrides it).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
	@echo "--- BENCH_jobs.json"
	@cat BENCH_jobs.json

# Perf-regression gate: rerun the concurrent-jobs shard sweep (including the
# skewed-load stealing point and the worker-backend codec points) and compare
# against the committed BENCH_baseline.json (fails on a >25% jobs/s drop at
# any shard count both recorded, a skewed-load ratio under 0.70 on multi-core
# machines, worker-backend throughput under 0.35 of the local peak, a binary
# codec win under 1.2x the JSON workers, over 5000 parent-side allocations
# per job on the wire hot path, or predictive placement under 0.9 of the
# least-loaded heuristic's throughput).
bench-check:
	$(GO) test -bench BenchmarkConcurrentJobs -benchtime 3x -run '^$$' .
	$(GO) run ./cmd/bench-check -min-worker-ratio 0.35 -min-codec-speedup 1.2 -max-worker-allocs 5000 -min-predictive-ratio 0.9

# Refresh the committed baseline from a fresh sweep on this machine.
bench-baseline:
	$(GO) test -bench BenchmarkConcurrentJobs -benchtime 3x -run '^$$' .
	$(GO) run ./cmd/bench-check -update

# Slow-regression check: every BenchmarkConcurrentJobs run appends one record
# to BENCH_history.jsonl; this reruns the sweep and flags the newest record
# drifting >25% below the median of the last 20 comparable runs — the kind of
# erosion no single-run gate sees.
bench-drift:
	$(GO) test -bench BenchmarkConcurrentJobs -benchtime 3x -run '^$$' .
	$(GO) run ./cmd/bench-check -drift 20

# Cost-model fidelity gate: run the deterministic validation battery
# (internal/modelcheck) and compare its prediction error against the
# committed MODEL_baseline.json — refresh after a deliberate model change
# with `go run ./cmd/model-check -update`. The run also appends a
# model-fidelity record to the shared BENCH_history.jsonl trajectory.
model-check:
	$(GO) run ./cmd/model-check -history BENCH_history.jsonl

# Validate and run every example scenario.
scenarios: build
	@for f in examples/scenarios/*.json; do \
		$(GO) run ./cmd/aimes-scenario validate $$f || exit 1; \
	done
	$(GO) run ./cmd/aimes-scenario run examples/scenarios/outage.json

# CI gate over the scenario corpus: every example scenario runs with
# `run -assert` on both the local and the worker backend, and the
# deliberately failing fixture must fail naming its assertion index
# (see scripts/scenario_matrix.sh).
scenario-matrix:
	./scripts/scenario_matrix.sh

# Smoke-run every example program under a timeout.
smoke:
	@for d in examples/*/; do \
		case $$d in examples/scenarios/) continue;; esac; \
		echo "--- $$d"; \
		timeout 120 $(GO) run ./$$d || exit 1; \
	done

# Worker-backend smoke: build the standalone shard worker, run the
# self-hosted workers example under a timeout, and run the race-enabled
# backend parity + crash-containment tests (each spawns real worker
# processes via the test binary's WorkerMain self-exec).
worker-smoke:
	$(GO) build -o /tmp/aimes-worker ./cmd/aimes-worker
	timeout 120 $(GO) run ./examples/workers
	$(GO) test -race -count=1 -run 'TestBackendParity|TestWorker' .

# TCP-transport smoke: host shards with a real `aimes-worker serve` process
# on a loopback port and run the parity matrix and crash containment against
# it (see scripts/worker_tcp_smoke.sh).
worker-tcp-smoke:
	./scripts/worker_tcp_smoke.sh

# Service-daemon smoke: a real aimes-server on an ephemeral port, on both
# the local and TCP-worker backends — two quota-limited tenants, a 429
# quota rejection, SSE event streaming, reconnect-and-wait by job ID,
# /metrics counters, and a graceful SIGTERM drain
# (see scripts/server_smoke.sh).
server-smoke:
	timeout 300 ./scripts/server_smoke.sh

# Worker-fleet smoke: two real `aimes-worker serve` hosts behind one
# aimes-server, kill -9 of one host mid-run — queued jobs replay on a
# respawned worker placed on the survivor, enacted jobs fail, the restart
# is visible in /metrics (see scripts/fleet_smoke.sh).
fleet-smoke:
	timeout 300 ./scripts/fleet_smoke.sh

ci: lint race perfbench-test bench-check model-check scenarios scenario-matrix worker-smoke worker-tcp-smoke server-smoke fleet-smoke
