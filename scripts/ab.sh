#!/usr/bin/env bash
# A/B-compare the repo benchmark between a git revision and the current
# tree.
#
#   scripts/ab.sh <rev> <workload> [pairs] [seed] [seconds]
#
# Defaults: 10 pairs, seed 1998, 20 s per run. Both sides are built from
# scratch copies under "${TMPDIR:-/tmp}/pim-ab": `<rev>` from `git archive`
# and the current tree from its tracked and untracked, non-ignored files.
# So building never rewrites the repo's `perfbench/Cargo.lock`, and each
# side keeps its own cargo target directory between invocations. The
# pairs alternate which side runs first. For every end-to-end metric of
# the JSON result line, and every `# name = value unit` report line, the
# summary prints each side's median and quartiles, the median of the
# paired change/base ratios, how many pairs the change won, and whether
# the gap between the medians exceeds the base's IQR. Its last line says
# whether every run reported `correct: true` with 0 failed. Needs git,
# tar, cargo and python3.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
  echo "usage: scripts/ab.sh <rev> <workload> [pairs] [seed] [seconds]" >&2
  exit 2
fi
rev="$1"
workload="$2"
pairs="${3:-10}"
seed="${4:-1998}"
seconds="${5:-20}"

repo="$(git rev-parse --show-toplevel)"
sha="$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
work="${TMPDIR:-/tmp}/pim-ab"
runs="$work/runs-$workload-$seed-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$work" "$runs"

# Extract a side into "$work/<side>" (replacing an older copy) and build
# its perfbench into "$work/target-<side>". Extracted files keep their
# recorded mtimes, so a rebuild of an unchanged side is incremental.
build() {
  local side="$1"
  rm -rf "${work:?}/$side"
  mkdir -p "$work/$side"
  if [ "$side" = base ]; then
    git -C "$repo" archive "$sha" | tar -x -C "$work/$side"
  else
    (cd "$repo" && git ls-files -z --cached --others --exclude-standard \
      | tar --null --ignore-failed-read -T - -cf -) 2>/dev/null \
      | tar -x -C "$work/$side"
  fi
  echo "building perfbench for $side" >&2
  CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
    --manifest-path "$work/$side/perfbench/Cargo.toml"
}
build base
build head

# One untraced run of `side`, from its own checkout root (perfbench keeps
# its generated inputs there).
run() {
  local side="$1" i="$2"
  (cd "$work/$side" && "$work/target-$side/release/perfbench" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0) > "$runs/$side-$i.txt" 2>&1 || true
}
echo "base $rev ($sha) vs the current tree: $workload, $pairs pairs, seed $seed, ${seconds} s" >&2
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run base "$i"
    run head "$i"
  else
    run head "$i"
    run base "$i"
  fi
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$runs" "$pairs" "$repo/BENCHMARK.json" "$rev" "$workload" "$seed" "$seconds" <<'PY'
import json, re, sys

runs, pairs, bench_path, rev, workload, seed, seconds = sys.argv[1:]
pairs = int(pairs)
better = {m["name"]: m["better"] for m in json.load(open(bench_path))["end_to_end"]}
report = re.compile(r"^# (\w+) = (\S+) (\S+)$")

def parse(path):
    """(e2e metrics, report-line metrics, correct, failed) of one run."""
    e2e, detail, result = {}, {}, None
    for line in open(path):
        line = line.strip()
        m = report.match(line)
        if m:
            try:
                detail[m.group(1)] = (float(m.group(2)), m.group(3))
            except ValueError:
                pass
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        return {}, detail, False, None
    for name, v in result["metrics"].items():
        e2e[name] = (v["value"], v["unit"])
    return e2e, detail, result["correct"], result["failed"]

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

sides = {s: [parse(f"{runs}/{s}-{i}.txt") for i in range(pairs)] for s in ("base", "head")}
print(f"# A/B {workload}: base {rev} vs the current tree; {pairs} pairs alternating "
      f"first side; seed {seed}; {seconds} s per run; logs in {runs}")
print(f"{'metric':<24} {'unit':<5} {'base median [q1, q3]':<30} {'change median [q1, q3]':<30} "
      f"{'ratio':>6} {'wins':>6} gap>IQR")
seen = set()
for kind, idx in (("e2e", 0), ("report", 1)):
    names = []
    for runs_ in sides.values():
        for r in runs_:
            for n in r[idx]:
                if n not in names and n not in seen:
                    names.append(n)
    seen.update(names)
    for name in names:
        base = [r[idx].get(name) for r in sides["base"]]
        head = [r[idx].get(name) for r in sides["head"]]
        paired = [(b[0], h[0]) for b, h in zip(base, head) if b and h]
        if not paired:
            continue
        unit = next(x for x in base + head if x)[1]
        up = better.get(name) == "higher" if kind == "e2e" else unit == "1/s"
        bs, hs = [b for b, _ in paired], [h for _, h in paired]
        bm, hm = quantile(bs, 0.5), quantile(hs, 0.5)
        iqr = quantile(bs, 0.75) - quantile(bs, 0.25)
        ratios = [h / b for b, h in paired if b]
        ratio = f"{quantile(ratios, 0.5):.3f}" if ratios else "-"
        wins = sum((h > b) if up else (h < b) for b, h in paired)
        fmt = lambda xs, m: f"{m:.4g} [{quantile(xs, 0.25):.4g}, {quantile(xs, 0.75):.4g}]"
        tag = "" if kind == "e2e" else " (report)"
        print(f"{name + tag:<24} {unit:<5} {fmt(bs, bm):<30} {fmt(hs, hm):<30} {ratio:>6} "
              f"{wins:>3}/{len(paired):<2} {'yes' if abs(hm - bm) > iqr else 'no'}")
for side, rs in sides.items():
    bad = [i for i, r in enumerate(rs) if not r[2] or r[3] != 0]
    state = "every run correct: true, 0 failed" if not bad else f"runs {bad} NOT correct or failed > 0"
    print(f"# {side}: {state}")
PY
