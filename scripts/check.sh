#!/bin/sh
# Repository check tiers.
#
#   scripts/check.sh            tier 1: build + tests (the gate every change must pass)
#   scripts/check.sh full       tier 2: tier 1 + gofmt + go vet + lint gate + race detector
#   scripts/check.sh bench      substrate benchmarks (one iteration each; smoke, not timing)
#   scripts/check.sh artifacts  golden-artifact drift gate: regenerate out/ and byte-diff
#   scripts/check.sh crossval   static-vs-injection agreement gate + table export
#   scripts/check.sh opt        optimization-matrix ordering gate + sweep table export
#   scripts/check.sh serve      campaign-daemon gate: serve tests under -race, then a
#                               loadgen soak (200+ concurrent campaigns) against a live
#                               gpurel-serve; soak report lands at serve-soak.txt
#   scripts/check.sh patterns   SDC-pattern gate: classifier + two-level tests under
#                               -race, then the two-level agreement gate; rendered
#                               table lands at patterns-gate-table.txt
#   scripts/check.sh duemode    DUE-mode gate: taxonomy packages under -race, the
#                               static-vs-injection DUE-mode tests, then the
#                               gpurel-lint agreement gate; rendered table lands
#                               at duemode-gate-table.txt
#   scripts/check.sh perf       static-analysis speed smoke: one perfbench run of
#                               the static workload; fails unless it is correct
#                               with no failed operations
#
# Unknown tier names fail immediately (exit 1) rather than silently
# running tier 1 — a typo'd "scripts/check.sh crosval" in CI must not
# masquerade as a passing crossval gate. Setting CHECK_SH_PARSE_ONLY=1
# validates the tier argument and exits before doing any work (used by
# the dispatcher's own tests).
#
# The race run executes the whole test suite a second time under
# -race instrumentation; expect it to take several times longer than
# the plain run. It uses -short so the heaviest campaign tests (already
# exercised un-instrumented by tier 1) do not push packages past the
# per-package timeout under the ~10x race slowdown.
#
# The artifacts tier reruns the full two-device study with the canonical
# flags (see EXPERIMENTS.md) into a temp directory and byte-compares it
# against the committed out/. The study is deterministic, so any diff is
# either an intentional model change (regenerate and commit out/) or
# silent drift — both are worth failing CI over.
set -eu
cd "$(dirname "$0")/.."

tier="${1:-}"
case "$tier" in
    ""|full|bench|crossval|opt|artifacts|serve|patterns|duemode|perf) ;;
    *)
        echo "check.sh: unknown tier \"$tier\"" >&2
        echo "known tiers: <none> (tier 1), full, bench, crossval, opt, artifacts, serve, patterns, duemode, perf" >&2
        exit 1
        ;;
esac

if [ "${CHECK_SH_PARSE_ONLY:-}" = "1" ]; then
    echo "tier ok: ${tier:-default}"
    exit 0
fi

if [ "${1:-}" = "bench" ]; then
    # Two stages. First a one-iteration smoke pass over every substrate
    # benchmark (compiles-and-runs coverage, no timing claims). Then the
    # timed per-fault gate: re-time the BenchmarkSimPerFault* suite,
    # emit the snapshot JSON benchdiff consumes (bench-new.json; stable
    # path, gitignored, uploaded by CI), and compare it against the
    # committed BENCH_v0.json baseline. The band is wide (see
    # tools/benchdiff) because CI runners are not the snapshot machine;
    # it exists to catch algorithmic regressions of the replay path,
    # not single-digit-percent noise.
    echo "== go test -run=^\$ -bench=BenchmarkSim -benchtime=1x ./..."
    go test -run='^$' -bench=BenchmarkSim -benchtime=1x ./...
    echo "== go test -run=^\$ -bench=BenchmarkSimPerFault -benchtime=2s -count=3 ."
    go test -run='^$' -bench=BenchmarkSimPerFault -benchtime=2s -count=3 . >bench-run.txt
    cat bench-run.txt
    go run ./tools/benchdiff emit -note "scripts/check.sh bench" <bench-run.txt >bench-new.json
    echo "== benchdiff compare BENCH_v0.json bench-new.json"
    go run ./tools/benchdiff compare -band 2.0 BENCH_v0.json bench-new.json
    echo "checks passed"
    exit 0
fi

if [ "${1:-}" = "crossval" ]; then
    # Rerun the static-vs-injection cross-validation (scalar + bit-band
    # tables, beam campaigns skipped) on both devices and fail if any
    # CrossValKernels workload sits outside faultinj.CrossValTolerance —
    # i.e. if a model change regressed a previously-agreeing kernel. The
    # rendered tables land at crossval-table.txt (stable path;
    # gitignored) so CI can upload them as a build artifact either way.
    echo "== gpurel-lint -cross-validate -beam-trials 0 -crossval-gate"
    if ! go run ./cmd/gpurel-lint -cross-validate -beam-trials 0 -crossval-gate >crossval-table.txt; then
        cat crossval-table.txt
        echo "CROSSVAL GATE: a workload's static AVF left the injection tolerance band (see above)"
        exit 1
    fi
    cat crossval-table.txt
    echo "checks passed"
    exit 0
fi

if [ "${1:-}" = "opt" ]; then
    # Rerun the optimization matrix (O0/O1/O2 plus unroll, copy-prop,
    # and spill knobs) over the CrossValKernels of both devices and fail
    # if the static per-configuration AVF ordering contradicts the
    # injection campaign's on any matrix — i.e. if a codegen or
    # explainer change broke the "why" layer's predictive ordering. The
    # sweep table lands at opt-gate-table.txt (stable path; gitignored)
    # so CI can upload it either way.
    echo "== gpurel-lint -opt-gate"
    if ! go run ./cmd/gpurel-lint -opt-gate >opt-gate-table.txt; then
        cat opt-gate-table.txt
        echo "OPT GATE: static AVF ordering contradicts injection on a matrix (see above)"
        exit 1
    fi
    cat opt-gate-table.txt
    echo "checks passed"
    exit 0
fi

if [ "${1:-}" = "artifacts" ]; then
    # Keep these flags in sync with EXPERIMENTS.md ("canonical artifact
    # regeneration"); a different trial count or seed produces different
    # (equally valid) numbers and a guaranteed diff. The byte-diff covers
    # every committed artifact, including the residency_* telemetry
    # tables and the due_gap_*/due_* static-vs-measured columns.
    #
    # On drift, the sanitized diff summary is left at out-drift-summary.txt
    # (stable path; gitignored) so CI can upload it as a workflow artifact.
    regen_cmd="go run ./cmd/gpurel-repro -trials 450 -faults 640 -seed 1"
    tmp="$(mktemp -d)"
    drift="$(mktemp)"
    trap 'rm -rf "$tmp" "$drift"' EXIT
    echo "== $regen_cmd -out <tempdir> -quiet"
    $regen_cmd -out "$tmp" -quiet
    echo "== diff -r out <tempdir>"
    if ! diff -r out "$tmp" >"$drift" 2>&1; then
        sed "s|$tmp|<regenerated>|g" "$drift" >out-drift-summary.txt
        echo "ARTIFACT DRIFT: regenerated artifacts differ from the committed out/:"
        grep -E '^(diff|Only in|Binary files)' out-drift-summary.txt || true
        echo "-- first differing hunks --"
        head -40 out-drift-summary.txt
        echo ""
        echo "Full diff summary written to out-drift-summary.txt"
        echo "If the change is intentional, regenerate and commit:"
        echo "    $regen_cmd -out out"
        exit 1
    fi
    rm -f out-drift-summary.txt
    echo "checks passed"
    exit 0
fi

if [ "$tier" = "patterns" ]; then
    # SDC-pattern gate, two stages. First the taxonomy-carrying packages
    # under -race: the classifier itself, the kernels diff capture, and
    # the two-level estimator's worker pool (-short keeps the exhaustive
    # campaign tests in the un-instrumented stage below). Then the full
    # two-level cross-validation test plus the gpurel-lint gate: on every
    # CrossValKernels workload of both devices, the two-level SDC AVF
    # must sit within faultinj.TwoLevelTolerance of an exhaustive
    # NVBitFI campaign at five or more times fewer simulations. The
    # rendered table lands at patterns-gate-table.txt (stable path;
    # gitignored) so CI can upload it either way.
    echo "== go test -race -short ./internal/patterns/ ./internal/kernels/ ./internal/faultinj/"
    go test -race -short -timeout 20m ./internal/patterns/ ./internal/kernels/ ./internal/faultinj/
    echo "== go test -run 'TestTwoLevel' ./internal/faultinj/"
    go test -run 'TestTwoLevel' -timeout 20m ./internal/faultinj/
    echo "== gpurel-lint -twolevel-gate -faults 500"
    if ! go run ./cmd/gpurel-lint -twolevel-gate -faults 500 >patterns-gate-table.txt; then
        cat patterns-gate-table.txt
        echo "PATTERNS GATE: the two-level estimate left the tolerance band or lost its speedup (see above)"
        exit 1
    fi
    cat patterns-gate-table.txt
    echo "checks passed"
    exit 0
fi

if [ "$tier" = "duemode" ]; then
    # DUE-mode gate, two stages. First the taxonomy-carrying packages
    # under -race: the typed simulator outcomes, the static mode
    # partition, and the DUE ledger (-short keeps the exhaustive
    # campaign tests out of the instrumented run). Then the full
    # static-vs-injection DUE-mode tests plus the gpurel-lint gate: on
    # every measurable CrossValKernels workload of both devices the
    # static mode shares must sit within faultinj.DUEModeTolerance
    # (L-infinity) of the campaign's typed-DUE ledger. The rendered
    # table lands at duemode-gate-table.txt (stable path; gitignored)
    # so CI can upload it either way.
    echo "== go test -race -short ./internal/analysis/ ./internal/sim/ ./internal/patterns/"
    go test -race -short -timeout 20m ./internal/analysis/ ./internal/sim/ ./internal/patterns/
    echo "== go test -run 'TestDUEMode|TestStaticDUEModes' ./internal/faultinj/"
    go test -run 'TestDUEMode|TestStaticDUEModes' -timeout 20m ./internal/faultinj/
    echo "== gpurel-lint -duemode-gate"
    if ! go run ./cmd/gpurel-lint -duemode-gate >duemode-gate-table.txt; then
        cat duemode-gate-table.txt
        echo "DUEMODE GATE: a workload's static DUE-mode shares left the typed-injection tolerance (see above)"
        exit 1
    fi
    cat duemode-gate-table.txt
    echo "checks passed"
    exit 0
fi

if [ "$tier" = "perf" ]; then
    # Static-analysis speed smoke: one untraced run of the perfbench
    # static workload (every injection-free estimator and the lint over
    # all 58 suite runners). It is not a timing gate — timings need
    # paired same-host runs (perfbench/README.md) — but it fails unless
    # the run's output checks pass with no failed operation, and its
    # result line records wall_s for the log. With each launch analyzed
    # once per runner it takes a few seconds; a run far slower than that
    # points at the analysis memo.
    echo "== bash perfbench/run.sh --workload static --seed 1 --seconds 30 --trace 0"
    result="$(bash perfbench/run.sh --workload static --seed 1 --seconds 30 --trace 0 | tail -n 1)"
    echo "$result"
    case "$result" in
        *'"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "PERF GATE: the static workload failed its output checks or an operation (see above)"
            exit 1
            ;;
    esac
    echo "checks passed"
    exit 0
fi

if [ "$tier" = "serve" ]; then
    # Campaign-daemon gate, two stages. First the serve/stats/faultinj
    # packages rerun under -race: the daemon is the one place the repo
    # shards one campaign's trials across goroutines, so its tests are
    # where the race detector earns its keep. Then a live soak: build
    # gpurel-serve and tools/loadgen, boot the daemon on a loopback
    # port, and push a few hundred concurrent campaigns through it.
    # The loadgen asserts determinism (duplicate requests land on
    # byte-identical /counts bodies), verifies adaptive stopping beat
    # the fixed-count baseline on every CrossValKernel, and writes the
    # savings table + latency percentiles + a /metrics scrape to
    # serve-soak.txt (stable path; gitignored) for CI to upload.
    echo "== go test -race ./internal/serve/ ./internal/stats/ ./internal/faultinj/"
    go test -race -timeout 20m ./internal/serve/ ./internal/stats/ ./internal/faultinj/
    bindir="$(mktemp -d)"
    spool="$(mktemp -d)"
    daemon_pid=""
    cleanup() {
        [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
        rm -rf "$bindir" "$spool"
    }
    trap cleanup EXIT
    echo "== go build ./cmd/gpurel-serve ./tools/loadgen"
    go build -o "$bindir/gpurel-serve" ./cmd/gpurel-serve
    go build -o "$bindir/loadgen" ./tools/loadgen
    addr="127.0.0.1:${GPUREL_SERVE_PORT:-8397}"
    echo "== gpurel-serve -addr $addr (background)"
    "$bindir/gpurel-serve" -addr "$addr" -spool "$spool" -quiet &
    daemon_pid=$!
    echo "== loadgen -addr $addr -campaigns 200"
    "$bindir/loadgen" -addr "$addr" -campaigns 200 -out serve-soak.txt
    cat serve-soak.txt
    echo "checks passed"
    exit 0
fi

echo "== go build ./..."
go build ./...
echo "== go test ./..."
go test ./...

if [ "${1:-}" = "full" ]; then
    echo "== gofmt -l"
    unformatted="$(gofmt -l .)"
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:"
        echo "$unformatted"
        exit 1
    fi
    echo "== go vet ./..."
    go vet ./...
    echo "== gpurel-lint (selftest + built-in kernels and micros)"
    go run ./cmd/gpurel-lint -selftest
    go run ./cmd/gpurel-lint >/dev/null
    echo "== gomaplint (deterministic artifact writers)"
    go run ./tools/gomaplint .
    echo "== go test -race -short ./..."
    go test -race -short -timeout 20m ./...
fi

echo "checks passed"
