#!/bin/sh
# Repository check tiers.
#
#   scripts/check.sh            tier 1: build + tests (the gate every change must pass)
#   scripts/check.sh full       tier 2: tier 1 + gofmt + go vet + lint gate + a
#                               15 s study-loader fuzz smoke run + race detector
#   scripts/check.sh bench      substrate benchmarks (one iteration each; smoke, not timing)
#   scripts/check.sh artifacts  golden-artifact drift gate: regenerate out/ and byte-diff
#   scripts/check.sh serve      campaign-daemon gate: serve tests under -race, a
#                               15 s checkpoint fuzz smoke run, a gpurel-serve
#                               boot smoke, then one perfbench run of the serve
#                               workload; fails unless it is correct with no
#                               failed operations
#   scripts/check.sh perf       perfbench smoke: one run of the static workload,
#                               then one of the study workload; fails unless
#                               each is correct with no failed operations
#
# The static-vs-injection agreement gates (AVF, DUE modes, two-level
# estimator, optimization-matrix ordering) have no tier of their own:
# tier 1's TestCommittedStudyAgreement checks them against the committed
# out/study_*.json, and the artifacts tier proves out/ is what the
# canonical regeneration produces.
#
# Unknown tier names fail immediately (exit 1) rather than silently
# running tier 1 — a typo'd "scripts/check.sh artifcats" in CI, or a
# stale step naming a retired tier, must not masquerade as a pass.
# Setting CHECK_SH_PARSE_ONLY=1 validates the tier argument and exits
# before doing any work (used by the dispatcher's own tests).
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
    ""|full|bench|artifacts|serve|perf) ;;
    *)
        echo "check.sh: unknown tier \"$tier\"" >&2
        echo "known tiers: <none> (tier 1), full, bench, artifacts, serve, perf" >&2
        exit 1
        ;;
esac

if [ "${CHECK_SH_PARSE_ONLY:-}" = "1" ]; then
    echo "tier ok: ${tier:-default}"
    exit 0
fi

# perfbench_gate runs one untraced perfbench pass of the named workload
# and fails unless its result line (the last line of output) reports
# correct output checks and no failed operation. It is not a timing
# gate — timings need paired same-host runs (perfbench/README.md) — but
# the result line records wall_s for the log.
perfbench_gate() {
    echo "== bash perfbench/run.sh --workload $1 --seed 1 --seconds 30 --trace 0"
    result="$(bash perfbench/run.sh --workload "$1" --seed 1 --seconds 30 --trace 0 | tail -n 1)"
    echo "$result"
    case "$result" in
        *'"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "PERFBENCH GATE: the $1 workload failed its output checks or an operation (see above)"
            exit 1
            ;;
    esac
}

if [ "${1:-}" = "bench" ]; then
    # Two stages. First a one-iteration smoke pass over every substrate
    # and static-analysis benchmark (compiles-and-runs coverage, no
    # timing claims). Then the timed per-fault gate: re-time the
    # BenchmarkSimPerFault* suite, emit the snapshot JSON benchdiff
    # consumes (bench-new.json; stable path, gitignored, uploaded by
    # CI), and compare it against the
    # committed BENCH_v0.json baseline. The band is wide (see
    # tools/benchdiff) because CI runners are not the snapshot machine;
    # it exists to catch algorithmic regressions of the replay path,
    # not single-digit-percent noise.
    echo "== go test -run=^\$ -bench='BenchmarkSim|BenchmarkAnalyze' -benchtime=1x ./..."
    go test -run='^$' -bench='BenchmarkSim|BenchmarkAnalyze' -benchtime=1x ./...
    echo "== go test -run=^\$ -bench=BenchmarkSimPerFault -benchtime=2s -count=3 ."
    go test -run='^$' -bench=BenchmarkSimPerFault -benchtime=2s -count=3 . >bench-run.txt
    cat bench-run.txt
    go run ./tools/benchdiff emit -note "scripts/check.sh bench" <bench-run.txt >bench-new.json
    echo "== benchdiff compare BENCH_v0.json bench-new.json"
    go run ./tools/benchdiff compare -band 2.0 BENCH_v0.json bench-new.json
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

if [ "$tier" = "perf" ]; then
    # Perfbench smoke, two stages. First the static workload, every
    # injection-free estimator and the lint over all 58 suite runners.
    # With each launch analyzed once per runner and the backward
    # fixpoints re-evaluating only stale definitions it takes a few
    # seconds; a run far slower than that points at the analysis memo
    # (kernels.Runner.LaunchAnalysis) or at the fixpoint's stale set
    # (internal/analysis/stale.go). Then the study workload, a scaled
    # two-device core.Run plus every artifact and SaveJSON (about 20 s
    # on 2 cores): its study JSON must round-trip byte for byte. Neither
    # stage has a timing or memory bound; the result lines put wall_s
    # and peak_rss_mb in the log.
    perfbench_gate static
    perfbench_gate study
    echo "checks passed"
    exit 0
fi

if [ "$tier" = "serve" ]; then
    # Campaign-daemon gate, four stages. First the serve/stats/faultinj
    # packages, the shared runner cache (internal/kernels) and the shared
    # worker pool (internal/par) rerun under -race: the daemon is the one
    # place the repo shards one campaign's trials across goroutines, so
    # its tests are where the race detector earns its keep. They include
    # the adaptive-stop gates over every CrossValKernel and identical
    # campaigns in flight at once. Then a bounded smoke run of the
    # spool-checkpoint fuzz target, which starts from the committed seed
    # corpus; minimization is capped so shrinking the first new input
    # does not eat the whole 15 s. Then build gpurel-serve, boot it on a
    # free loopback port and a temp spool until /healthz answers, and
    # stop it. Last, the perfbench serve workload drives an in-process
    # daemon over HTTP: many short adaptive campaigns sharing an evicting
    # runner cache, with duplicates whose /counts must match byte for
    # byte, pause/resume and the SSE stream.
    echo "== go test -race ./internal/serve/ ./internal/stats/ ./internal/faultinj/ ./internal/kernels/ ./internal/par/"
    go test -race -timeout 20m ./internal/serve/ ./internal/stats/ ./internal/faultinj/ ./internal/kernels/ ./internal/par/
    echo "== go test -run '^\$' -fuzz FuzzLoadCheckpoint -fuzztime 15s -fuzzminimizetime 200x ./internal/serve"
    go test -run '^$' -fuzz FuzzLoadCheckpoint -fuzztime 15s -fuzzminimizetime 200x ./internal/serve
    tmp="$(mktemp -d)"
    daemon_pid=""
    cleanup() {
        [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
        rm -rf "$tmp"
    }
    trap cleanup EXIT
    echo "== go build ./cmd/gpurel-serve"
    go build -o "$tmp/gpurel-serve" ./cmd/gpurel-serve
    echo "== gpurel-serve -addr 127.0.0.1:0 (background) until /healthz answers"
    mkdir "$tmp/spool"
    "$tmp/gpurel-serve" -addr 127.0.0.1:0 -spool "$tmp/spool" -quiet >"$tmp/announce" &
    daemon_pid=$!
    healthy=""
    for _ in $(seq 150); do
        base="$(sed -n 's|^gpurel-serve listening on \(http://[^ ]*\) .*|\1|p' "$tmp/announce")"
        if [ -n "$base" ] && curl -fsS "$base/healthz" >/dev/null 2>&1; then
            healthy=1
            break
        fi
        kill -0 "$daemon_pid" 2>/dev/null || break
        sleep 0.2
    done
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
    daemon_pid=""
    if [ -z "$healthy" ]; then
        echo "SERVE GATE: gpurel-serve did not answer /healthz within 30 s"
        cat "$tmp/announce"
        exit 1
    fi
    echo "$base/healthz ok"
    perfbench_gate serve
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
    echo "== go test -run '^\$' -fuzz FuzzLoadDeviceStudy -fuzztime 15s -fuzzminimizetime 200x ./internal/core"
    go test -run '^$' -fuzz FuzzLoadDeviceStudy -fuzztime 15s -fuzzminimizetime 200x ./internal/core
    echo "== go test -race -short ./..."
    go test -race -short -timeout 20m ./...
fi

echo "checks passed"
