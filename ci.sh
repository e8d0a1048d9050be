#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test pass.
# Run from the repository root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> tier-1 build: cargo build --release"
# default-members lists every workspace member, so the plain build also
# makes target/release/tussle-cli for the smokes below.
cargo build --release

# The tier-1 test pass, split per suite so every binary gets a wall-clock
# reading and a hard budget: a test binary that crosses 120s has outgrown
# the machine and must be split or slimmed, not waited on. Together these
# invocations cover exactly what `cargo test -q` runs.
BUDGET_S=120
slowest_name=""
slowest_s=0
timed_test() {
  local name="$1"; shift
  local start elapsed
  start=$(date +%s)
  cargo test -q "$@"
  elapsed=$(( $(date +%s) - start ))
  echo "    suite '${name}' took ${elapsed}s (budget ${BUDGET_S}s)"
  if (( elapsed > slowest_s )); then
    slowest_s=$elapsed
    slowest_name=$name
  fi
  if (( elapsed > BUDGET_S )); then
    echo "FAIL: suite '${name}' exceeded the ${BUDGET_S}s budget (${elapsed}s)" >&2
    exit 1
  fi
}

echo "==> tier-1 tests (per-suite timings)"
timed_test "workspace unit tests"  --workspace --lib --bins
timed_test "workspace doctests"    --workspace --doc
# Crate-level integration/property suites.
timed_test "actors/prop_actors"            -p tussle-actors      --test prop_actors
timed_test "actors/oracle_network"         -p tussle-actors      --test oracle_network
timed_test "actors/oracle_freezing"        -p tussle-actors      --test oracle_freezing
timed_test "cli/oracle_parse"              -p tussle-cli         --test oracle_parse
timed_test "econ/prop_ledger"              -p tussle-econ        --test prop_ledger
timed_test "econ/oracle_market"            -p tussle-econ        --test oracle_market
timed_test "experiments/chaos_campaign"    -p tussle-experiments --test chaos_campaign
timed_test "experiments/oracle_fuzz"       -p tussle-experiments --test oracle_fuzz
timed_test "experiments/profile_allocations" -p tussle-experiments --test profile_allocations
timed_test "game/prop_games"               -p tussle-game        --test prop_games
timed_test "names/prop_names"              -p tussle-names       --test prop_names
timed_test "net/oracle_forwarding"         -p tussle-net         --test oracle_forwarding
timed_test "net/prop_fastpath"             -p tussle-net         --test prop_fastpath
timed_test "net/prop_net"                  -p tussle-net         --test prop_net
timed_test "net/prop_traceback"            -p tussle-net         --test prop_traceback
timed_test "policy/prop_parser"            -p tussle-policy      --test prop_parser
timed_test "routing/prop_routing"          -p tussle-routing     --test prop_routing
timed_test "core/prop_scoreboard"          -p tussle-core        --test prop_scoreboard
timed_test "sim/prop_chaos"                -p tussle-sim         --test prop_chaos
timed_test "sim/dispatch_allocations"      -p tussle-sim         --test dispatch_allocations
timed_test "sim/prop_engine"               -p tussle-sim         --test prop_engine
timed_test "sim/log_eviction"              -p tussle-sim         --test log_eviction
timed_test "sim/oracle_trace"              -p tussle-sim         --test oracle_trace
timed_test "sim/prop_export"               -p tussle-sim         --test prop_export
timed_test "sim/prop_obs"                  -p tussle-sim         --test prop_obs
timed_test "sim/prop_provenance"           -p tussle-sim         --test prop_provenance
timed_test "trust/prop_trust"              -p tussle-trust       --test prop_trust
# Workspace-level integration suites.
timed_test "corpus_replay"            --test corpus_replay
timed_test "end_to_end_qos"           --test end_to_end_qos
timed_test "experiments_all"          --test experiments_all
timed_test "extensions_integration"   --test extensions_integration
timed_test "golden_reports"           --test golden_reports
timed_test "determinism_matrix"       --test determinism_matrix
timed_test "export_oracle"            --test export_oracle
timed_test "multihoming_vcg"          --test multihoming_vcg
timed_test "principles_integration"   --test principles_integration
timed_test "routing_integration"      --test routing_integration
echo "slowest suite: '${slowest_name}' at ${slowest_s}s"
echo "golden reports OK (regenerate intentional changes with UPDATE_GOLDEN=1)"

echo "==> profile smoke: self-profiling JSON, schema-checked"
profile_json="$(./target/release/tussle-cli profile --only E10 --json)"
echo "$profile_json" | jq -e '
  (length == 1)
  and (.[0].id == "E10")
  and (.[0].seed == 2002)
  and (.[0].shape_holds == true)
  and (.[0].cost.digest | test("^[0-9a-f]{16}$"))
  and (.[0].wall_nanos > 0)
  and (.[0].topics | type == "object")
' > /dev/null
./target/release/tussle-cli trace --only E1 --grep econ. > /dev/null
echo "profile smoke OK: cost digest, wall time and topic attribution present"

echo "==> trace smoke: a --grep matching nothing must fail loudly"
grep_err=""
if grep_err="$(./target/release/tussle-cli trace --only E1 --grep zzz 2>&1 >/dev/null)"; then
  echo "FAIL: trace --grep with zero matches exited 0" >&2
  exit 1
fi
echo "$grep_err" | grep -q "0 entries matched" || {
  echo "FAIL: zero-match trace error did not name the count: $grep_err" >&2
  exit 1
}
echo "trace smoke OK: zero-match grep exits 1 with a diagnostic"

echo "==> trace --json smoke: structured dump, schema-checked"
tracej="$(./target/release/tussle-cli trace --only E1 --grep econ. --json)"
echo "$tracej" | jq -e '
  (length == 1)
  and (.[0].experiment == "E1")
  and (.[0].seed == 2002)
  and (.[0].matched >= 1)
  and ((.[0].entries | length) == .[0].matched)
  and ([.[0].entries[].topic | startswith("econ.")] | all)
' > /dev/null
echo "trace --json smoke OK: grep-filtered entries are structured"

echo "==> export smoke: chrome trace golden-locked, thread-invariant, valid JSON"
export_dir="$(mktemp -d)"
for t in 1 2 8; do
  ./target/release/tussle-cli export --only E9 --format chrome --threads "$t" \
    --out "$export_dir/E9.t$t.json" > /dev/null
  cmp -s tests/golden/E9.chrome.json "$export_dir/E9.t$t.json" || {
    echo "FAIL: export --format chrome --threads $t diverged from tests/golden/E9.chrome.json" >&2
    exit 1
  }
done
jq -e --sort-keys '
  (.displayTimeUnit == "ms")
  and (.traceEvents | length >= 1)
  and ([.traceEvents[] | has("ph") and has("pid") and has("tid") and has("ts")] | all)
  and (([.traceEvents[] | select(.ph == "B")] | length)
       == ([.traceEvents[] | select(.ph == "E")] | length))
' "$export_dir/E9.t1.json" > /dev/null
rm -rf "$export_dir"
echo "export smoke OK: E9 chrome trace matches the golden at 1/2/8 threads"

echo "==> broken-pipe smoke: export piped into head exits 0 without a panic"
# pipefail (set above) makes the pipeline fail if tussle-cli does; its
# output is far larger than a pipe buffer, so head exits mid-write.
pipe_err="$(mktemp)"
if ! first_line="$(./target/release/tussle-cli export --only E17 --format jsonl 2>"$pipe_err" | head -1)"; then
  echo "FAIL: export | head -1 exited nonzero: $(cat "$pipe_err")" >&2
  exit 1
fi
if [[ -s "$pipe_err" ]]; then
  echo "FAIL: export | head -1 wrote to stderr: $(cat "$pipe_err")" >&2
  exit 1
fi
rm -f "$pipe_err"
echo "$first_line" | jq -e '.topic | type == "string"' > /dev/null
echo "broken-pipe smoke OK: the reader closing early is a quiet success"

echo "==> export smoke: prometheus exposition carries typed families"
prom="$(./target/release/tussle-cli export --only E1,E9,E14 --format prom)"
echo "$prom" | grep -q "^# TYPE tussle_stakeholder_entries counter" || {
  echo "FAIL: prom export is missing the stakeholder family" >&2
  exit 1
}
echo "$prom" | grep -q "^# TYPE tussle_topic_virtual_micros counter" || {
  echo "FAIL: prom export is missing the topic family" >&2
  exit 1
}
echo "$prom" | grep -q "^# experiment E9 seed 2002" || {
  echo "FAIL: multi-experiment prom export is missing its section headers" >&2
  exit 1
}
echo "prom export smoke OK: typed families and per-experiment headers present"

echo "==> health smoke: the committed baseline self-compares green"
./target/release/tussle-cli health > /dev/null || {
  echo "FAIL: health exited nonzero against the committed BENCH_sim.json" >&2
  exit 1
}
health_json="$(./target/release/tussle-cli health --json)"
echo "$health_json" | jq -e '
  (.healthy == true)
  and (.regressions == [])
  and (.missing == [])
  and (.determinism_ok == true)
  and (.scoreboard_conserves == true)
  and (.trends | length >= 12)
  and ([.trends[] | .ratio == 1] | all)
' > /dev/null
echo "health smoke OK: bench trends, campaign determinism and scoreboard all green"

echo "==> health smoke: an inflated bench median must fail the gate"
inflated="$(mktemp)"
jq '.[0].median_ns |= (. * 10 | floor)' BENCH_sim.json > "$inflated"
health_err=""
if health_err="$(./target/release/tussle-cli health --bench "$inflated" --baseline BENCH_sim.json 2>&1 >/dev/null)"; then
  echo "FAIL: health exited 0 on a 10x-inflated bench median" >&2
  exit 1
fi
echo "$health_err" | grep -q "regressed" || {
  echo "FAIL: health regression error did not name the regressed bench: $health_err" >&2
  exit 1
}
rm -f "$inflated"
echo "health negative smoke OK: inflated median exits 1 and names the bench"

echo "==> explain smoke: causal ancestry JSON, schema-checked"
explain_json="$(./target/release/tussle-cli explain --only E9 --event E3 --json)"
echo "$explain_json" | jq -e '
  (.id == "E9")
  and (.seed == 2002)
  and (.target == 3)
  and (.complete == true)
  and (.hops | length >= 1)
  and ([.hops[] | has("event") and has("time_micros") and has("span")] | all)
  and (.hops[0].parent == null)
  and (.hops[-1].event == 3)
' > /dev/null
echo "explain smoke OK: chain is root-first and ends at the queried event"

echo "==> flamegraph smoke: collapsed stacks match the golden snapshots"
for fg in E10 E14; do
  ./target/release/tussle-cli profile --only "$fg" --collapsed \
    | diff -u "tests/golden/$fg.collapsed" - > /dev/null \
    || { echo "FAIL: profile --collapsed diverged from tests/golden/$fg.collapsed" >&2; exit 1; }
done
echo "flamegraph smoke OK: E10 + E14 virtual-time collapsed stacks are stable"

echo "==> causal sweep: explain/diff meaningful for all 17 experiments"
sweep_start=$(date +%s)
for id in E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16 E17; do
  # explain: every experiment schedules engine events, so event e0 has a
  # complete root-first ancestry chain.
  ./target/release/tussle-cli explain --only "$id" --event e0 --json | jq -e --arg id "$id" '
    (.id == $id)
    and (.seed == 2002)
    and (.complete == true)
    and (.hops | length >= 1)
    and (.hops[0].parent == null)
    and (.hops[-1].event == 0)
  ' > /dev/null || { echo "FAIL: explain sweep broke at $id" >&2; exit 1; }
  # diff: the seeded pacing lags guarantee seeds 1 and 2 diverge, and the
  # divergence is pinpointed with context and ancestry on both sides.
  ./target/release/tussle-cli diff --only "$id" --seed 1 --seed-b 2 --json | jq -e --arg id "$id" '
    (.id == $id)
    and (.seed_a == 1) and (.seed_b == 2)
    and (.identical == false)
    and (.divergence != null)
    and (.divergence.probes >= 1)
    and (.divergence.a | has("entry") and has("context") and has("ancestry"))
    and (.divergence.b | has("entry") and has("context") and has("ancestry"))
  ' > /dev/null || { echo "FAIL: diff sweep broke at $id" >&2; exit 1; }
done
sweep_elapsed=$(( $(date +%s) - sweep_start ))
if (( sweep_elapsed > BUDGET_S )); then
  echo "FAIL: causal sweep exceeded the ${BUDGET_S}s budget (${sweep_elapsed}s)" >&2
  exit 1
fi
echo "causal sweep OK: all 17 ids explain and diff (${sweep_elapsed}s)"

echo "==> fuzz smoke: fixed-seed campaign, schema-checked, thread-count invariant"
fuzz_start=$(date +%s)
fuzz_json="$(./target/release/tussle-cli fuzz --budget 200 --seeds 3 --json)"
echo "$fuzz_json" | jq -e '
  (.schema == 1)
  and (.base_seed == 1) and (.seeds == 3) and (.budget == 200)
  and (.executions == 200)
  and (.coverage_cells >= 1)
  and (.digest | test("^[0-9a-f]{16}$"))
  and (.oracles | length == 7)
  and ([.oracles[] | has("oracle") and has("checks") and has("violations")] | all)
  and ([.oracles[] | .checks >= 1] | all)
  and (.chains | length == 3)
  and ([.chains[] | has("seed") and has("executions") and has("coverage_cells") and has("digest")] | all)
  and (.findings | type == "array")
' > /dev/null
# Every oracle must have fired at least once AND found nothing on the
# pinned seed; any finding here is a real regression in a substrate.
echo "$fuzz_json" | jq -e '[.oracles[].violations] | add == 0' > /dev/null || {
  echo "FAIL: the fixed-seed fuzz campaign found violations:" >&2
  echo "$fuzz_json" | jq '.findings' >&2
  exit 1
}
# Byte-determinism across thread counts — the acceptance bar.
for t in 1 2 8; do
  threaded="$(./target/release/tussle-cli fuzz --budget 200 --seeds 3 --threads "$t" --json)"
  if [[ "$threaded" != "$fuzz_json" ]]; then
    echo "FAIL: fuzz output changed at --threads $t" >&2
    exit 1
  fi
done
fuzz_elapsed=$(( $(date +%s) - fuzz_start ))
if (( fuzz_elapsed > BUDGET_S )); then
  echo "FAIL: fuzz smoke exceeded the ${BUDGET_S}s budget (${fuzz_elapsed}s)" >&2
  exit 1
fi
echo "fuzz smoke OK: 200 executions, 7 oracles green, byte-identical at 1/2/8 threads (${fuzz_elapsed}s)"

echo "==> corpus hygiene: no untracked repro artifacts in tests/corpus/"
untracked_corpus="$(git status --porcelain -- tests/corpus | grep '^??' || true)"
if [[ -n "$untracked_corpus" ]]; then
  echo "FAIL: untracked files in tests/corpus/ — commit the repro or clean it up:" >&2
  echo "$untracked_corpus" >&2
  exit 1
fi
echo "corpus hygiene OK: every tests/corpus entry is tracked"

echo "==> perf baseline: BENCH_sim.json from the obs + sweep + net + fuzz + substrates + chaos + ablations benches"
bench_jsonl="$(mktemp)"
trap 'rm -f "$bench_jsonl"' EXIT
CRITERION_JSON="$bench_jsonl" cargo bench -p tussle-bench --bench obs --bench sweep --bench net --bench fuzz --bench substrates --bench chaos --bench ablations
jq -s 'sort_by(.bench)' "$bench_jsonl" > BENCH_sim.json
jq -e '
  (length >= 12)
  and ([.[] | has("bench") and has("median_ns")] | all)
  and ([.[] | has("samples") and has("min_ns") and has("q1_ns") and has("q3_ns")] | all)
  and ([.[] | has("nproc") and has("profile")] | all)
  and ([.[].median_ns | . > 0] | all)
  and ([.[].bench] | any(startswith("obs/")))
  and ([.[].bench] | any(. == "obs/experiments_profile_scope"))
  and ([.[].bench] | any(startswith("sweep/")))
  and ([.[].bench] | any(startswith("net/")))
  and ([.[].bench] | any(startswith("fuzz/")))
  and ([.[].bench] | any(startswith("layer/")))
  and ([.[].bench] | any(. == "layer/sim/engine_10k_traced"))
  and ([.[].bench] | any(startswith("chaos/")))
  and ([.[].bench] | any(startswith("ablation/")))
' BENCH_sim.json > /dev/null
echo "perf baseline OK: $(jq length BENCH_sim.json) benches recorded in BENCH_sim.json"

# Opt-in long fuzz campaign, off the critical path: set FUZZ_BUDGET=N to
# run N extra executions over 5 seed chains after the gate itself is green.
# No time budget applies — this is the ROADMAP's long-campaign hook, not a
# tier-1 stage.
if [[ -n "${FUZZ_BUDGET:-}" ]]; then
  echo "==> opt-in fuzz campaign: FUZZ_BUDGET=${FUZZ_BUDGET} executions over 5 seed chains"
  long_fuzz="$(./target/release/tussle-cli fuzz --budget "$FUZZ_BUDGET" --seeds 5 --json)"
  echo "$long_fuzz" | jq -e '[.oracles[].violations] | add == 0' > /dev/null || {
    echo "FAIL: the long fuzz campaign found violations:" >&2
    echo "$long_fuzz" | jq '.findings' >&2
    exit 1
  }
  echo "long fuzz campaign OK: $(echo "$long_fuzz" | jq -r '.executions') executions, all oracles green"
fi

echo "CI OK"
