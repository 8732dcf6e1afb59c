#!/usr/bin/env bash
# Tier-1 gate: what must stay green on every commit.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== cargo test --doc -q =="
cargo test --doc -q

# Simulator oracle-equivalence proptests, in release so the corpus is
# cheap. The vendored proptest shim derives its RNG seed from the test
# name, so this run is deterministic — the "fixed seed" is built in.
echo "== cycle simulator proptests (release, fixed seed) =="
cargo test -q --release -p pim-tests-int --test cycle_props

# Solver identity at sizes the proptests never reach: the literal DP,
# the 2-D transform and the separable kernel must give identical GOMCDS
# schedules on the paper set (4x4 and 32x8) and on growing arrays. The
# binary exits non-zero on any divergence; its timings are not gated.
echo "== GOMCDS solver identity (ablation_solver) =="
./target/release/ablation_solver

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

# Benches must keep compiling even though CI never runs them.
echo "== cargo bench --no-run =="
cargo bench --no-run -q

# The repo benchmark (perfbench/, its own cargo workspace) calls the
# scheduling API by path: build it so an API change fails here rather
# than in a benchmark run. Build only — its timing-based tests are not a
# CI gate.
echo "== perfbench build =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# Deny broken intra-doc links in first-party crates. Scoped with -p: the
# vendored shims (vendor/proptest) carry upstream doc warnings we do not
# own and must not gate on.
echo "== cargo doc --no-deps (first-party, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p pim-array -p pim-trace -p pim-par -p pim-workloads \
  -p pim-sched -p pim-sim -p pim-serve -p pim-cli -p pim-bench \
  -p pim-reference

# The frozen oracles stay out of production code: besides pim-reference
# itself, only pim-bench (parity checks and oracle timings) and its
# dependent pim-cli may link it as a normal dependency.
echo "== pim-reference boundary =="
reference_users="$(cargo tree -q -e normal -i pim-reference --prefix none \
  | awk '{print $1}' | sort -u \
  | grep -vxE 'pim-reference|pim-bench|pim-cli' || true)"
[ -z "$reference_users" ] \
  || { echo "pim-reference linked by: $reference_users"; exit 1; }
echo "pim-reference linked only by pim-bench and pim-cli"

# Metrics export smoke: `--metrics` must emit JSON that parses and
# carries the three RunReport sections. Falls back to grep when no
# python3 is on the PATH.
echo "== --metrics smoke run =="
metrics_tmp="$(mktemp -d)"
trap 'rm -rf "$metrics_tmp"' EXIT
(cd "$metrics_tmp" && "$OLDPWD/target/release/pim-cli" \
  run --bench 3 --size 8 --method gomcds --metrics run_metrics.json)
if command -v python3 >/dev/null 2>&1; then
  python3 - "$metrics_tmp/run_metrics.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
for key in ("scheduler", "analytic", "sim", "cycle", "metrics"):
    assert key in report, f"missing {key!r} in RunReport"
assert report["metrics"]["enabled"] is True
assert report["analytic"]["total"] == report["sim"]["total_hop_volume"]
cycle = report["cycle"]
assert cycle["completion_cycles"] >= report["sim"]["completion_time"], \
    "simulated completion beat the analytic lower bound"
assert cycle["window_completion_cycles"], "no per-window completion cycles"
print("run_metrics.json: parses, all sections present")
PY
else
  for key in '"scheduler"' '"analytic"' '"sim"' '"cycle"' '"metrics"' '"enabled": true'; do
    grep -q "$key" "$metrics_tmp/run_metrics.json" \
      || { echo "run_metrics.json missing $key"; exit 1; }
  done
  echo "run_metrics.json: expected keys present (grep fallback)"
fi

# Export-then-reload smoke: `export` writes the generated trace as a
# `.pimb`, and `run --trace` must load it back and schedule it at the
# same cost as the generated trace.
echo "== export / run --trace reload smoke (bench 3, 8x8, gomcds 2x) =="
./target/release/pim-cli export --bench 3 --size 8 --out "$metrics_tmp/b3.pimb"
./target/release/pim-cli run --trace "$metrics_tmp/b3.pimb" --method gomcds \
  --memory 2x > "$metrics_tmp/b3_reload.txt"
./target/release/pim-cli run --bench 3 --size 8 --method gomcds --memory 2x \
  > "$metrics_tmp/b3_direct.txt"
reload_cost="$(sed -n 's/^GOMCDS: total \([0-9]*\) .*/\1/p' "$metrics_tmp/b3_reload.txt")"
direct_cost="$(sed -n 's/^GOMCDS: total \([0-9]*\) .*/\1/p' "$metrics_tmp/b3_direct.txt")"
[ -n "$direct_cost" ] && [ "$reload_cost" = "$direct_cost" ] \
  || { echo "export reload: GOMCDS total '$reload_cost' != generated '$direct_cost'"; exit 1; }
echo "export reload: GOMCDS total $reload_cost matches the generated trace"

# Cycle-bench artifact smoke: the committed BENCH_cycle.json (emitted by
# `report_all`) must parse, carry at least one row, and keep the speedup
# column; a speedup below 1 is reported but does not gate (timings are
# machine-dependent), mirroring report_all's own stderr warning.
echo "== BENCH_cycle.json smoke =="
if [ ! -f BENCH_cycle.json ]; then
  echo "BENCH_cycle.json missing — regenerate with: cargo run --release -p pim-bench --bin report_all"
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_cycle.json <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
rows = bench["rows"]
assert rows, "BENCH_cycle.json has no rows"
for row in rows:
    for key in ("grid", "oracle_ns", "event_ns", "speedup"):
        assert key in row, f"row missing {key!r}: {row}"
    if row["speedup"] < 1.0:
        print(f"warning: {row['grid']}: event-driven slower than oracle "
              f"(speedup {row['speedup']:.3f})", file=sys.stderr)
print(f"BENCH_cycle.json: parses, {len(rows)} rows, speedup column present")
PY
else
  for key in '"rows"' '"oracle_ns"' '"event_ns"' '"speedup"' '"grid"'; do
    grep -q "$key" BENCH_cycle.json \
      || { echo "BENCH_cycle.json missing $key"; exit 1; }
  done
  if grep -q '"speedup": 0\.' BENCH_cycle.json; then
    echo "warning: BENCH_cycle.json has a speedup < 1 row" >&2
  fi
  echo "BENCH_cycle.json: expected keys present (grep fallback)"
fi

# Scale-pipeline smoke: regenerate one small big-instance row (16×16,
# 50k data) and validate the BENCH_scale.json shape. Cost parity with the
# reference oracle (`pim_reference::schedule`) is asserted inside
# scale_row itself — the binary exits non-zero on divergence; here we
# additionally check the speedup column made it into the JSON.
echo "== scale pipeline smoke (16x16 x 50k) =="
./target/release/report_scale --smoke --out "$metrics_tmp/scale_smoke.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$metrics_tmp/scale_smoke.json" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
rows = bench["rows"]
assert rows, "scale smoke produced no rows"
for row in rows:
    for key in ("grid", "num_data", "num_refs", "build_ns", "methods", "peak_rss_kb"):
        assert key in row, f"row missing {key!r}: {row}"
    for m in row["methods"]:
        for key in ("method", "flat_ns", "total_cost"):
            assert key in m, f"method entry missing {key!r}: {m}"
        assert m["exact_cost"] == m["total_cost"], \
            f"{m['method']}: flat cost diverged from the reference oracle"
print(f"scale smoke: parses, {len(rows)} row(s), flat/oracle cost parity holds")
PY
else
  for key in '"rows"' '"grid"' '"num_refs"' '"build_ns"' '"flat_ns"' \
             '"total_cost"' '"exact_cost"' '"speedup"'; do
    grep -q "$key" "$metrics_tmp/scale_smoke.json" \
      || { echo "scale_smoke.json missing $key"; exit 1; }
  done
  echo "scale smoke: expected keys present (grep fallback)"
fi

# Churn smoke: drive the incremental engine through 5 edit ticks on
# 16×16 × 50k SCDS/LOMCDS and 16×16 × 20k GOMCDS (unbounded and
# scaled-min ×2) instances plus the tight-capacity fallback row, and validate
# the BENCH_churn.json shape. Bit-identical parity with the from-scratch
# path is asserted inside churn_row itself — the binary exits non-zero on
# divergence; here we additionally check the parity flags made it into
# the JSON and that the fallback row actually exercised the full-replay
# path (fallbacks > 0 somewhere). Speedups are reported, not gated —
# timings are machine-dependent.
echo "== churn smoke (16x16 x 50k SCDS/LOMCDS, 20k GOMCDS, 5 ticks) =="
./target/release/report_churn --smoke --out "$metrics_tmp/churn_smoke.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$metrics_tmp/churn_smoke.json" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
rows = bench["rows"]
assert rows, "churn smoke produced no rows"
for row in rows:
    for key in ("grid", "num_data", "method", "policy", "ticks",
                "dirty_per_tick", "mean_tick_ns", "mean_scratch_ns",
                "speedup", "fallbacks", "parity", "peak_rss_kb", "tick_ns"):
        assert key in row, f"row missing {key!r}: {row}"
    assert row["parity"] is True, f"{row['method']}/{row['policy']}: parity lost"
    assert len(row["tick_ns"]) == row["ticks"], "tick_ns length != ticks"
    if row["speedup"] < 1.0 and row["fallbacks"] == 0:
        print(f"warning: {row['method']}/{row['policy']}: incremental slower "
              f"than scratch (speedup {row['speedup']:.3f})", file=sys.stderr)
assert any(r["fallbacks"] > 0 for r in rows), \
    "no row exercised the full-replay fallback path"
print(f"churn smoke: parses, {len(rows)} rows, parity holds, fallback path hit")
PY
else
  for key in '"rows"' '"mean_tick_ns"' '"mean_scratch_ns"' '"speedup"' \
             '"fallbacks"' '"parity": true'; do
    grep -q "$key" "$metrics_tmp/churn_smoke.json" \
      || { echo "churn_smoke.json missing $key"; exit 1; }
  done
  echo "churn smoke: expected keys present (grep fallback)"
fi

# DAG smoke: precedence-gated run on the Cholesky natural chain under
# minimum-capacity memory (the regime BENCH_dag.json benchmarks). The
# aware schedule (list-scds) must complete no later than the precedence-
# oblivious GOMCDS schedule under the same gated simulator, and the
# metrics JSON must carry the "dag" section with a per-window breakdown.
echo "== --dag smoke run (Cholesky natural chain) =="
(cd "$metrics_tmp" && "$OLDPWD/target/release/pim-cli" \
  run --bench cholesky --size 16 --window 2 --memory 1x --method list-scds \
  --dag natural --metrics dag_aware.json)
(cd "$metrics_tmp" && "$OLDPWD/target/release/pim-cli" \
  run --bench cholesky --size 16 --window 2 --memory 1x --method gomcds \
  --dag natural --metrics dag_oblivious.json)
if command -v python3 >/dev/null 2>&1; then
  python3 - "$metrics_tmp/dag_aware.json" "$metrics_tmp/dag_oblivious.json" <<'PY'
import json, sys
aware = json.load(open(sys.argv[1]))
oblivious = json.load(open(sys.argv[2]))
for name, report in (("aware", aware), ("oblivious", oblivious)):
    assert "dag" in report, f"{name}: missing 'dag' section in RunReport"
    dag = report["dag"]
    assert dag["window_completion_cycles"], f"{name}: no per-window dag cycles"
    assert dag["completion_cycles"] == sum(dag["window_completion_cycles"]), \
        f"{name}: dag completion is not the sum of its windows"
    assert dag["completion_cycles"] >= report["cycle"]["completion_cycles"], \
        f"{name}: gated release beat the ungated run"
a, o = aware["dag"]["completion_cycles"], oblivious["dag"]["completion_cycles"]
assert a <= o, \
    f"precedence-aware completion {a} exceeds the oblivious baseline {o}"
print(f"dag smoke: aware {a} <= oblivious {o} gated cycles, dag section present")
PY
else
  for f in dag_aware.json dag_oblivious.json; do
    grep -q '"dag":{"completion_cycles":' "$metrics_tmp/$f" \
      || { echo "$f missing the dag section"; exit 1; }
  done
  echo "dag smoke: dag sections present (grep fallback)"
fi

# Serve smoke: drive one request of each op through the daemon's stdio
# transport (the same submit/worker path the socket transports use) and
# validate the responses; then run the serve load harness's smoke mode
# and validate the BENCH_serve.json shape — including that the burst
# actually shed load as typed overloaded rejections.
echo "== serve smoke (stdio, one request of each op) =="
serve_trace='flat v1 4 4 2 3\n0 0 1 3\n0 1 5 2\n1 0 9 4\n1 1 2 1\n2 0 7 2\n2 1 12 6\n'
{
  printf '{"id":1,"op":"load","text":"%s"}\n' "$serve_trace"
  printf '{"id":2,"op":"stats"}\n'
  printf '{"id":3,"op":"ping"}\n'
  printf 'not json at all\n'
} > "$metrics_tmp/serve_in_1.txt"
./target/release/pim-cli serve --serve-workers 1 < "$metrics_tmp/serve_in_1.txt" \
  > "$metrics_tmp/serve_out_1.txt"
serve_key="$(sed -n 's/.*"trace":"\([0-9a-f]\{16\}\)".*/\1/p' \
  "$metrics_tmp/serve_out_1.txt" | head -n 1)"
[ -n "$serve_key" ] || { echo "serve smoke: load returned no trace key"; exit 1; }
{
  printf '{"id":1,"op":"load","text":"%s"}\n' "$serve_trace"
  printf '{"id":2,"op":"schedule","trace":"%s","method":"scds"}\n' "$serve_key"
  printf '{"id":3,"op":"simulate","trace":"%s"}\n' "$serve_key"
  printf '{"id":4,"op":"edit","trace":"%s","delta":{"version":1,"ops":[{"op":"set_run","datum":0,"window":1,"refs":[[3,2]]}]}}\n' "$serve_key"
  printf '{"id":5,"op":"schedule","trace":"%s","method":"scds"}\n' "$serve_key"
  printf '{"id":6,"op":"schedule","trace":"%s","method":"lomcds","policy":{"scaled_min":2}}\n' "$serve_key"
  printf '{"id":7,"op":"evict","trace":"%s","scope":"engine"}\n' "$serve_key"
  printf '{"id":8,"op":"stats"}\n'
  printf '{"id":9,"op":"shutdown"}\n'
} > "$metrics_tmp/serve_in_2.txt"
./target/release/pim-cli serve --serve-workers 1 < "$metrics_tmp/serve_in_2.txt" \
  > "$metrics_tmp/serve_out_2.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$metrics_tmp/serve_out_1.txt" "$metrics_tmp/serve_out_2.txt" <<'PY'
import json, sys
probe = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert probe[0]["ok"] and probe[0]["fresh"], "load failed"
assert probe[1]["ok"] and "server" in probe[1] and "store" in probe[1], "stats shape"
assert probe[2]["ok"] and probe[2].get("pong"), "ping failed"
assert not probe[3]["ok"] and probe[3]["error"] == "bad_request", \
    "malformed line did not get a typed bad_request"
session = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
ops = ["load", "schedule", "simulate", "edit", "schedule", "schedule", "evict", "stats",
       "shutdown"]
assert len(session) == len(ops), f"expected {len(ops)} responses, got {len(session)}"
for i, (resp, op) in enumerate(zip(session, ops)):
    assert resp["ok"], f"op {op} (response {i+1}) failed: {resp}"
assert session[1]["warm"] is False and session[4]["warm"] is True, \
    "second schedule after edit should be the warm path"
assert session[5]["warm"] is False, "a new method after the edit builds a new engine"
assert session[3]["version"] == 1, "edit did not bump the version"
assert session[1]["cost"]["total"] == \
    session[1]["cost"]["reference"] + session[1]["cost"]["movement"]
stats = session[7]["server"]
assert stats["requests"]["schedule"] == 3 and stats["engine_builds"] >= 2
print("serve smoke: all ops answered, warm path hit, stats consistent")
PY
else
  grep -q '"ok":true' "$metrics_tmp/serve_out_2.txt" \
    || { echo "serve smoke: no ok responses"; exit 1; }
  grep -q '"error":"bad_request"' "$metrics_tmp/serve_out_1.txt" \
    || { echo "serve smoke: malformed line not rejected"; exit 1; }
  echo "serve smoke: expected markers present (grep fallback)"
fi
# The schedules after the edit (responses 5 and 6) must cost what
# `pim-cli run` charges on the hand-edited trace (the edit rewrites
# datum 0's window-1 run `0 1 5 2` as `0 1 3 2`) under the same method
# and policy. Serve defaults to unbounded memory and `run` to 2x, so the
# policy is spelled out on the `run` side.
printf '%b' "$serve_trace" | sed 's/^0 1 5 2$/0 1 3 2/' > "$metrics_tmp/serve_edited.txt"
grep -q '^0 1 3 2$' "$metrics_tmp/serve_edited.txt" \
  || { echo "serve smoke: could not build the edited trace"; exit 1; }
./target/release/pim-cli pack --trace "$metrics_tmp/serve_edited.txt" \
  --out "$metrics_tmp/serve_edited.pimb" > /dev/null
while read -r line method memory; do
  served="$(sed -n "${line}p" "$metrics_tmp/serve_out_2.txt" \
    | sed -n 's/.*"total":\([0-9]*\).*/\1/p')"
  direct="$(./target/release/pim-cli run --trace "$metrics_tmp/serve_edited.pimb" \
    --method "$method" --memory "$memory" \
    | sed -n 's/.*: total \([0-9]*\) (reference.*/\1/p' | head -n 1)"
  [ -n "$served" ] && [ "$served" = "$direct" ] \
    || { echo "serve smoke: $method $memory after the edit costs '$served', run --trace '$direct'"; exit 1; }
  echo "serve smoke: $method $memory after the edit costs $served, as run --trace does"
done <<'CASES'
5 scds unbounded
6 lomcds 2x
CASES

echo "== serve load smoke (report_serve --smoke) =="
./target/release/report_serve --smoke --out "$metrics_tmp/serve_smoke.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$metrics_tmp/serve_smoke.json" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
rows = bench["rows"]
assert rows, "serve smoke produced no rows"
for row in rows:
    for key in ("grid", "num_data", "mode", "concurrency", "requests", "ok",
                "overloaded", "errors", "elapsed_ns", "throughput_rps",
                "p50_us", "p90_us", "p99_us", "max_us"):
        assert key in row, f"row missing {key!r}: {row}"
    assert row["errors"] == 0, f"serve row had hard errors: {row}"
modes = {row["mode"] for row in rows}
assert {"warm", "churn", "cold"} <= modes, f"missing modes: {modes}"
burst = bench["burst"]
assert burst["overloaded"] > 0, "burst produced no overload rejections"
assert burst["ok"] + burst["overloaded"] + burst["errors"] == burst["requests"], \
    "burst dropped requests"
print(f"serve smoke: {len(rows)} rows, burst shed "
      f"{burst['overloaded']}/{burst['requests']} requests")
PY
else
  for key in '"rows"' '"throughput_rps"' '"p99_us"' '"burst"' '"overloaded"'; do
    grep -q "$key" "$metrics_tmp/serve_smoke.json" \
      || { echo "serve_smoke.json missing $key"; exit 1; }
  done
  echo "serve load smoke: expected keys present (grep fallback)"
fi

# Streaming smoke: pack a 16×16 × 50k synthetic instance to the binary
# container, schedule it memory-mapped (`run --bin`) and through the
# out-of-core streaming pipeline (`scale --bin` — same synthetic
# generator, same seed), and assert the two total costs agree. Then run
# the stream report's smoke mode (which isolates each phase in a child
# process and asserts stream/in-memory cost parity itself) and validate
# the BENCH_stream.json shape. RSS ratios and load speedups are
# reported, not gated, at smoke scale — fixed overheads dominate 50k
# data; the committed full-scale BENCH_stream.json carries the bounds.
echo "== streaming smoke (pack / run --bin / scale --bin, 16x16 x 50k; bounded GOMCDS x 3k) =="
./target/release/pim-cli pack --grid 16x16 --data 50000 \
  --out "$metrics_tmp/stream_smoke.pimb"
./target/release/pim-cli run --bin --trace "$metrics_tmp/stream_smoke.pimb" \
  --method scds > "$metrics_tmp/stream_mmap.txt"
./target/release/pim-cli scale --grid 16x16 --data 50000 --method scds --bin \
  > "$metrics_tmp/stream_stream.txt"
grep -q "memory-mapped" "$metrics_tmp/stream_mmap.txt" \
  || { echo "run --bin did not memory-map the container"; exit 1; }
mmap_cost="$(sed -n 's/.*: total \([0-9]*\) (reference.*/\1/p' \
  "$metrics_tmp/stream_mmap.txt" | head -n 1)"
stream_cost="$(sed -n 's/.*: total \([0-9]*\) (reference.*/\1/p' \
  "$metrics_tmp/stream_stream.txt" | head -n 1)"
[ -n "$mmap_cost" ] && [ -n "$stream_cost" ] \
  || { echo "streaming smoke: could not extract total costs"; exit 1; }
[ "$mmap_cost" = "$stream_cost" ] \
  || { echo "streaming smoke: mmap cost $mmap_cost != streamed cost $stream_cost"; exit 1; }
# Bounded GOMCDS streams too (its capacity replay is datum-ordered): a
# small pack scheduled memory-mapped and streamed under 2x memory must
# cost the same.
./target/release/pim-cli pack --grid 16x16 --data 3000 \
  --out "$metrics_tmp/stream_gomcds.pimb"
./target/release/pim-cli run --bin --trace "$metrics_tmp/stream_gomcds.pimb" \
  --method gomcds --memory 2x > "$metrics_tmp/gomcds_mmap.txt"
./target/release/pim-cli scale --grid 16x16 --data 3000 --method gomcds \
  --memory 2x --bin > "$metrics_tmp/gomcds_stream.txt"
gomcds_mmap="$(sed -n 's/.*: total \([0-9]*\) (reference.*/\1/p' \
  "$metrics_tmp/gomcds_mmap.txt" | head -n 1)"
gomcds_stream="$(sed -n 's/.*: total \([0-9]*\) (reference.*/\1/p' \
  "$metrics_tmp/gomcds_stream.txt" | head -n 1)"
[ -n "$gomcds_mmap" ] && [ "$gomcds_mmap" = "$gomcds_stream" ] \
  || { echo "bounded GOMCDS: mmap cost '$gomcds_mmap' != streamed cost '$gomcds_stream'"; exit 1; }
# `run --bin` reaches every registered method, not only the three the
# stream walk supports: bounded grouping on the mapped file must cost what
# the same method costs on the file loaded with `run --trace`.
./target/release/pim-cli run --bin --trace "$metrics_tmp/stream_gomcds.pimb" \
  --method grouped --memory 2x > "$metrics_tmp/grouped_mmap.txt"
./target/release/pim-cli run --trace "$metrics_tmp/stream_gomcds.pimb" \
  --method grouped --memory 2x > "$metrics_tmp/grouped_loaded.txt"
grouped_mmap="$(sed -n 's/.*: total \([0-9]*\) (reference.*/\1/p' \
  "$metrics_tmp/grouped_mmap.txt" | head -n 1)"
grouped_loaded="$(sed -n 's/.*: total \([0-9]*\) (reference.*/\1/p' \
  "$metrics_tmp/grouped_loaded.txt" | head -n 1)"
[ -n "$grouped_mmap" ] && [ "$grouped_mmap" = "$grouped_loaded" ] \
  || { echo "grouped run --bin: mmap cost '$grouped_mmap' != loaded cost '$grouped_loaded'"; exit 1; }
./target/release/pim-cli unpack --trace "$metrics_tmp/stream_smoke.pimb" \
  --out "$metrics_tmp/stream_smoke.txt"
grep -q "^flat v1 16 16 " "$metrics_tmp/stream_smoke.txt" \
  || { echo "unpack did not produce a flat text header"; exit 1; }

echo "== stream report smoke (report_stream --smoke) =="
./target/release/report_stream --smoke --out "$metrics_tmp/stream_smoke.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$metrics_tmp/stream_smoke.json" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
for key in ("config", "instance", "load", "rows"):
    assert key in bench, f"missing {key!r} in BENCH_stream"
assert bench["load"]["speedup"] > 1.0, "binary load not faster than text parse"
rows = bench["rows"]
assert {r["method"] for r in rows} == {"scds", "lomcds"}, "missing a method row"
for row in rows:
    for key in ("method", "stream_ns", "stream_cost", "stream_peak_rss_kb",
                "num_chunks", "inmem_ns", "inmem_cost", "inmem_peak_rss_kb",
                "rss_ratio", "parity"):
        assert key in row, f"row missing {key!r}: {row}"
    assert row["parity"] is True, f"{row['method']}: streamed cost diverged"
    assert row["num_chunks"] > 1, f"{row['method']}: smoke run was single-chunk"
    if row["rss_ratio"] > 1.0:
        print(f"warning: {row['method']}: streaming peak RSS above in-memory "
              f"(ratio {row['rss_ratio']:.2f})", file=sys.stderr)
print(f"stream smoke: parses, {len(rows)} rows, parity holds, "
      f"load speedup {bench['load']['speedup']:.1f}x")
PY
else
  for key in '"rows"' '"stream_cost"' '"inmem_cost"' '"rss_ratio"' \
             '"parity": true' '"speedup"'; do
    grep -q "$key" "$metrics_tmp/stream_smoke.json" \
      || { echo "stream_smoke.json missing $key"; exit 1; }
  done
  echo "stream smoke: expected keys present (grep fallback)"
fi

echo "ci: all green"
