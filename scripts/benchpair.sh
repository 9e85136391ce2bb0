#!/usr/bin/env bash
# Paired host-cost comparison of a parent revision against the current
# checkout on one perfbench workload:
#
#   scripts/benchpair.sh <parent-rev> <workload> <pairs> <seconds> [seed]
#
# The parent's committed files are exported with `git archive` into a
# temporary directory ($TMPDIR). Each pair runs perfbench/run.sh once on each
# side with the same seed (default 1) and run length, alternating which side
# goes first so slow drift on a shared machine does not favour either. Every
# run's correct/failed/ops_per_s is printed. The summary covers every
# end-to-end metric that BENCHMARK.json names: each side's median and
# quartiles, the ratio of the medians (change / parent), the pairs the change
# won and lost (ties count for neither side), and WORSE where the change's
# median is worse than the parent's by more than the metric's bound. Needs
# jq.
set -euo pipefail
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <seconds> [seed]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4 seed=${5:-1}
cd "$(dirname "$0")/.."
change=$(pwd)

tmp=$(mktemp -d)
parent="$tmp/parent"
trap 'rm -rf "$tmp"' EXIT
mkdir "$parent"
git archive "$rev" | tar -x -C "$parent"

# run <side> <dir>: one benchmark run; prints "side correct failed ops_per_s"
# and appends the run's JSON line to $tmp/<side>.jsonl.
run() {
    local side=$1 dir=$2 out
    out=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)
    printf '%-6s correct=%s failed=%s ops_per_s=%s\n' "$side" "$(jq -r .correct <<<"$out")" \
        "$(jq -r .failed <<<"$out")" "$(jq -r .metrics.ops_per_s.value <<<"$out")"
    echo "$out" >>"$tmp/$side.jsonl"
}

for ((i = 1; i <= pairs; i++)); do
    echo "== pair $i/$pairs =="
    if ((i % 2)); then
        run parent "$parent"
        run change "$change"
    else
        run change "$change"
        run parent "$parent"
    fi
done

# summary <name> <better> <bound>: one metric's line. Reads the paired
# values as "parent change" lines on stdin; quartiles interpolate linearly
# between ranks.
summary() {
    awk -v name="$1" -v better="$2" -v bound="$3" '
        function q(v, n, p,   pos, lo) {
            pos = (n - 1) * p + 1; lo = int(pos)
            return lo >= n ? v[lo] : v[lo] + (v[lo + 1] - v[lo]) * (pos - lo)
        }
        function sort(v, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        {
            p[NR] = $1; c[NR] = $2
            d = better == "higher" ? $2 - $1 : $1 - $2
            if (d > 0) w++; else if (d < 0) l++
        }
        END {
            if (NR == 0) { printf "%-20s (not reported)\n", name; exit }
            sort(p, NR); sort(c, NR)
            pm = q(p, NR, 0.5); cm = q(c, NR, 0.5)
            ratio = pm != 0 ? sprintf("%.3f", cm / pm) : "n/a"
            worse = better == "higher" ? cm < pm * (1 - bound) : cm > pm * (1 + bound)
            printf "%-20s %-30s %-30s %6s %5s  %s\n", name,
                sprintf("%.6g [%.6g, %.6g]", pm, q(p, NR, 0.25), q(p, NR, 0.75)),
                sprintf("%.6g [%.6g, %.6g]", cm, q(c, NR, 0.25), q(c, NR, 0.75)),
                ratio, (w + 0) "/" (l + 0), worse ? "WORSE (bound " bound ")" : ""
        }'
}

echo "== $workload seed=$seed seconds=$seconds pairs=$pairs =="
printf '%-20s %-30s %-30s %6s %5s\n' metric "parent median [q1, q3]" "change median [q1, q3]" ratio won/lost
jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' BENCHMARK.json |
    while read -r name better bound; do
        paste <(jq -r --arg m "$name" '.metrics[$m].value // empty' "$tmp/parent.jsonl") \
            <(jq -r --arg m "$name" '.metrics[$m].value // empty' "$tmp/change.jsonl") |
            awk 'NF == 2' | summary "$name" "$better" "$bound"
    done
