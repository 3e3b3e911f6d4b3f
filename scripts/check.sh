#!/bin/sh
# check.sh runs the full static + dynamic gate (the tier-1+ verify):
#
#   1. gofmt         every tracked .go file is formatted
#   2. go vet        standard static analysis
#   3. go build      everything compiles, including the example binaries
#   4. go test -race full test suite under the race detector
#   5. golangci-lint supplementary static analysis with the pinned
#                    .golangci.yml config — runs only when the binary
#                    is installed; the gate needs nothing beyond the
#                    Go toolchain
#   6. sdlint        every built-in workload and example program is free
#                    of stream races, port conflicts, balance errors and
#                    out-of-bounds footprints (see docs/LINT.md)
#   7. sdlint -cluster
#                    every shipped program *set* passes the cluster
#                    checks: cross-unit footprints disjoint over the
#                    whole pipeline, shared regions single-writer and
#                    phase-ordered (docs/LINT.md)
#   8. sdlint -fix   the barrier synthesis/elimination pass is a no-op
#                    on every built-in program: nothing ships with a
#                    missing or provably redundant barrier
#   9. fault soak    a short deterministic slice of the fault-injection
#                    soak (see docs/ROBUSTNESS.md); `make soak` runs
#                    the full breadth
#  10. bench smoke   sdbench -json on a small workload slice; fails if
#                    simulated cycle counts drift from the committed
#                    goldens, or if the geomean host ns/cycle regresses
#                    past the tolerance against the committed
#                    BENCH_sim.json ratchet — retried once, since the
#                    ratchet measures wall time and transient host load
#                    is not a regression (see docs/SIMKERNEL.md)
#  11. obs           observability end-to-end (docs/OBSERVABILITY.md):
#                    traced metrics runs of gemm and stencil2d, a warm
#                    (second-run) gemm, and class1p on the 8-unit
#                    cluster, the Perfetto trace
#                    validated against the format contract, the stall
#                    attribution against the conservation invariant,
#                    and the dump rendered as Prometheus exposition
#                    through the scrape lint
#  12. fuzz smoke    a short slice of `make fuzz-smoke`: the footprint-
#                    algebra fuzz targets, the three-mode scheduling
#                    equivalence fuzz and the per-cycle vs default
#                    cluster equivalence fuzz (docs/SIMKERNEL.md), plus the
#                    barrier-interval slide verification (docs/LINT.md);
#                    `make fuzz-smoke` runs the full budget
#  13. serve smoke   sdserve's in-process self-test (docs/SERVE.md):
#                    start the server on a loopback port, submit gemm,
#                    assert the resubmission is a cache hit, stream a
#                    run over SSE (progress frames precede a terminal
#                    result byte-identical to the unary response),
#                    scrape /metrics through the exposition lint and
#                    check it agrees with /statusz, reject a malformed
#                    submission with a typed error, and drain cleanly
#                    with a request in flight
#
# Run it from the repository root (or via `make check`). Exits non-zero
# on the first failing stage.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== golangci-lint (optional)"
if command -v golangci-lint >/dev/null 2>&1; then
	golangci-lint run ./...
else
	echo "golangci-lint not installed; skipping (config: .golangci.yml)"
fi

echo "== sdlint"
go run ./cmd/sdlint

echo "== sdlint -cluster (inter-unit disjointness + shared regions)"
go run ./cmd/sdlint -cluster

echo "== sdlint -fix (barrier minimality)"
go run ./cmd/sdlint -fix

echo "== fault soak (short slice; make soak for full breadth)"
SOAK_SEEDS=8 go test -race -run TestSoakFaultInjection -count=1 ./internal/core

echo "== bench smoke (cycle goldens + host-perf ratchet)"
go run ./cmd/sdbench -json -smoke -out /tmp/BENCH_sim_smoke.json -ratchet BENCH_sim.json || {
	echo "bench smoke: retrying once (transient host load?)"
	sleep 2
	go run ./cmd/sdbench -json -smoke -out /tmp/BENCH_sim_smoke.json -ratchet BENCH_sim.json
}

echo "== obs (trace validity + stall conservation)"
for w in gemm stencil2d; do
	go run ./cmd/sdsim -w "$w" -scale 2 \
		-metrics "/tmp/obs_$w.json" -trace-out "/tmp/obs_$w.trace.json" >/dev/null
	go run ./cmd/sdobs -validate-trace "/tmp/obs_$w.trace.json" -check "/tmp/obs_$w.json"
	go run ./cmd/sdobs -prom "/tmp/obs_$w.json" >/dev/null
done
go run ./cmd/sdsim -w gemm -scale 2 -warm \
	-metrics /tmp/obs_gemm_warm.json -trace-out /tmp/obs_gemm_warm.trace.json >/dev/null
go run ./cmd/sdobs -validate-trace /tmp/obs_gemm_warm.trace.json -check /tmp/obs_gemm_warm.json
go run ./cmd/sdsim -w class1p \
	-metrics /tmp/obs_class1p.json -trace-out /tmp/obs_class1p.trace.json >/dev/null
go run ./cmd/sdobs -validate-trace /tmp/obs_class1p.trace.json -check /tmp/obs_class1p.json

echo "== fuzz smoke (short slice; make fuzz-smoke for full budget)"
FUZZTIME=5s make fuzz-smoke

echo "== serve smoke (submit, cache hit, stream, metrics, typed reject, graceful drain)"
go run ./cmd/sdserve -smoke

echo "== all checks passed"
