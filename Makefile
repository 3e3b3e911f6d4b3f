# Tier-1 verify: build + tests, the bar every change must clear.
.PHONY: test
test:
	go build ./...
	go test ./...

# Tier-1+ verify: formatting, vet, build, race-mode tests, and the
# sdlint static hazard gate over every built-in program (docs/LINT.md).
.PHONY: check
check:
	sh scripts/check.sh

# Run every example binary (examples/*/main.go). Each verifies its
# results against a host computation and exits non-zero on a mismatch,
# so a run that fails any check fails the target. check.sh runs this in
# stage 3.
.PHONY: examples
examples:
	@for f in examples/*/main.go; do \
		d=$${f%/main.go}; echo "== $$d"; \
		go run ./$$d >/dev/null || exit 1; \
	done

# Lint the built-in workload and example programs only: machine scope
# per program, then cluster scope per program set (docs/LINT.md).
.PHONY: lint
lint:
	go run ./cmd/sdlint
	go run ./cmd/sdlint -cluster

# Verify every built-in program is at the barrier-minimal fixed point:
# the fix pass (docs/LINT.md) would neither insert nor remove a barrier.
.PHONY: fix-check
fix-check:
	go run ./cmd/sdlint -fix

# Randomized fault-injection soak (docs/ROBUSTNESS.md): 50 seeded
# programs, each under every fault profile plus a maimed variant, plus
# the per-cycle-vs-default cluster determinism sweep, under the race
# detector. Override the breadth with SOAK_SEEDS=n.
.PHONY: soak
soak:
	SOAK_SEEDS=$${SOAK_SEEDS:-50} go test -race -run 'TestSoakFaultInjection|TestClusterDeterminism' -count=1 ./internal/core

# Simulator host-performance smoke benchmark (docs/SIMKERNEL.md): runs
# sdbench -json on a small workload slice, fails if simulated cycle
# counts drift from scripts/bench_goldens.json, and ratchets host
# performance against the committed BENCH_sim.json — geomean ns/cycle
# regression past bench.PerfTolerance fails the run. One retry absorbs
# transient host load (the ratchet measures wall time; a co-tenant
# spike is not a regression). Full suite: go run ./cmd/sdbench -json.
# check.sh runs this as stage 10.
.PHONY: bench-smoke
bench-smoke:
	go run ./cmd/sdbench -json -smoke -out /tmp/BENCH_sim_smoke.json -ratchet BENCH_sim.json || \
		{ echo "bench-smoke: retrying once (transient host load?)"; sleep 2; \
		  go run ./cmd/sdbench -json -smoke -out /tmp/BENCH_sim_smoke.json -ratchet BENCH_sim.json; }

.PHONY: bench
bench:
	go test -bench=. -run=^$$ .

# Short randomized fuzz of the footprint algebra (internal/isa), the
# DFG evaluator (internal/dfg) and the scheduling-mode equivalence
# property (internal/core): the isa targets cross-check
# Extent/Overlaps/IndexFootprint against brute-force byte enumeration;
# FuzzEvaluator runs a workload DFG from internal/dfg/testdata or a
# random graph for 64 or more instances and demands the compiled
# evaluator's output word for word equal to the reference interpreter's
# (docs/SIMKERNEL.md §7) — its inputs are whole .dfg texts, so it caps
# the minimization of a new input at 100 runs, which otherwise spends
# most of a short budget; FuzzSpanEquivalence runs a seeded generated program —
# optionally under a fault profile, or maimed so that it may hang —
# per-cycle and in the default span-retirement mode and demands
# identical statistics and memory, or the same hang diagnosis;
# FuzzClusterEquivalence runs 2–8 units, each under its own generated
# program, per-cycle and with default scheduling and demands identical
# memory, per-unit statistics and metrics dumps (docs/SIMKERNEL.md);
# FuzzLineReq drives the engines' run-form line requests (affine and
# indirect AGUs, gather, scatter, rollback) against the per-byte
# reference forms kept in internal/engine/linereq_test.go.
# Go runs one -fuzz pattern per invocation, so the
# targets run sequentially. Override the budget with FUZZTIME=30s.
# Ends with the barrier-interval slide check (docs/LINT.md): every
# computed legal placement interval brute-force verified — analysis
# verdict unchanged at every slot inside, changed one slot outside —
# over all workloads, examples, and generated barrier-heavy programs.
.PHONY: fuzz-smoke
fuzz-smoke:
	go test ./internal/isa -run '^$$' -fuzz '^FuzzAffineExtent$$' -fuzztime $${FUZZTIME:-10s}
	go test ./internal/isa -run '^$$' -fuzz '^FuzzAffineOverlaps$$' -fuzztime $${FUZZTIME:-10s}
	go test ./internal/isa -run '^$$' -fuzz '^FuzzIndexFootprint$$' -fuzztime $${FUZZTIME:-10s}
	go test ./internal/dfg -run '^$$' -fuzz '^FuzzEvaluator$$' -fuzztime $${FUZZTIME:-10s} -fuzzminimizetime 100x
	go test ./internal/core -run '^$$' -fuzz '^FuzzSpanEquivalence$$' -fuzztime $${FUZZTIME:-10s}
	go test ./internal/core -run '^$$' -fuzz '^FuzzClusterEquivalence$$' -fuzztime $${FUZZTIME:-10s}
	go test ./internal/engine -run '^$$' -fuzz '^FuzzLineReq$$' -fuzztime $${FUZZTIME:-10s}
	go test ./internal/fix -run '^TestIntervalSlide' -count=1 -v

# Observability end-to-end check (docs/OBSERVABILITY.md): metrics +
# Perfetto trace runs of two workloads, of a warm (second-run) gemm and
# of class1p on the 8-unit cluster, the trace validated against the format contract and the stall
# attribution against the conservation invariant (causes sum exactly to
# elapsed cycles per component); the two workloads' dumps are also
# rendered as Prometheus exposition through the scrape lint.
# check.sh runs this as stage 11.
.PHONY: obs-check
obs-check:
	go run ./cmd/sdsim -w gemm -scale 2 -metrics /tmp/obs_gemm.json -trace-out /tmp/obs_gemm.trace.json >/dev/null
	go run ./cmd/sdobs -validate-trace /tmp/obs_gemm.trace.json -check /tmp/obs_gemm.json
	go run ./cmd/sdobs -prom /tmp/obs_gemm.json >/dev/null
	go run ./cmd/sdsim -w stencil2d -scale 2 -metrics /tmp/obs_stencil2d.json -trace-out /tmp/obs_stencil2d.trace.json >/dev/null
	go run ./cmd/sdobs -validate-trace /tmp/obs_stencil2d.trace.json -check /tmp/obs_stencil2d.json
	go run ./cmd/sdobs -prom /tmp/obs_stencil2d.json >/dev/null
	go run ./cmd/sdsim -w gemm -scale 2 -warm -metrics /tmp/obs_gemm_warm.json -trace-out /tmp/obs_gemm_warm.trace.json >/dev/null
	go run ./cmd/sdobs -validate-trace /tmp/obs_gemm_warm.trace.json -check /tmp/obs_gemm_warm.json
	go run ./cmd/sdsim -w class1p -metrics /tmp/obs_class1p.json -trace-out /tmp/obs_class1p.trace.json >/dev/null
	go run ./cmd/sdobs -validate-trace /tmp/obs_class1p.trace.json -check /tmp/obs_class1p.json

# sdserve self-test (docs/SERVE.md): start the service on a loopback
# port, submit a workload, verify the cache hit on resubmission, stream
# a run over SSE (progress frames, then a result byte-identical to the
# unary response), scrape /metrics through the exposition lint against
# /statusz, and check the typed rejection of a bad submission and a
# clean drain with a request in flight. check.sh runs this as stage 13.
.PHONY: serve-smoke
serve-smoke:
	go run ./cmd/sdserve -smoke

# sdserve load generator (docs/SERVE.md): an in-process server soaked
# by concurrent clients with chaos cancellations; writes the
# throughput/latency table to BENCH_serve.json and fails if any panic
# escaped a request. Override the shape with LOADGEN_ARGS.
.PHONY: serve-loadgen
serve-loadgen:
	go run ./cmd/sdserve -loadgen $${LOADGEN_ARGS:-}
