#!/usr/bin/env bash
# Paired host-cost comparison of a parent revision against the current
# checkout on one perfbench workload:
#
#   scripts/benchpair.sh <parent-rev> <workload> <pairs> <seconds> [seed]
#
# The parent is checked out into a temporary git worktree. Each pair runs
# perfbench/run.sh once on each side with the same seed (default 1) and run
# length, alternating which side goes first so slow drift on a shared machine
# does not favour either. Every run's correct/failed/ops_per_s is printed,
# then each side's median and quartiles of ops_per_s and the number of pairs
# the change won (ties count for neither side). Needs jq.
set -euo pipefail
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <seconds> [seed]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4 seed=${5:-1}
cd "$(dirname "$0")/.."
change=$(pwd)

tmp=$(mktemp -d)
parent="$tmp/worktree"
cleanup() {
    git -C "$change" worktree remove --force "$parent" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$parent" "$rev"

# run <side> <dir>: one benchmark run; prints "side correct failed ops_per_s"
# and appends ops_per_s to $tmp/<side>.ops.
run() {
    local side=$1 dir=$2 out
    out=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)
    local ops
    ops=$(jq -r '.metrics.ops_per_s.value' <<<"$out")
    printf '%-6s correct=%s failed=%s ops_per_s=%s\n' "$side" \
        "$(jq -r '.correct' <<<"$out")" "$(jq -r '.failed' <<<"$out")" "$ops"
    echo "$ops" >>"$tmp/$side.ops"
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

# summary <side>: median and quartiles (linear interpolation between ranks).
summary() {
    sort -g "$tmp/$1.ops" | awk -v side="$1" '
        { v[NR] = $1 }
        function q(p,   pos, lo) {
            pos = (NR - 1) * p + 1; lo = int(pos)
            return lo >= NR ? v[NR] : v[lo] + (v[lo + 1] - v[lo]) * (pos - lo)
        }
        END { printf "%-6s median=%.4g q1=%.4g q3=%.4g iqr=%.4g\n", side, q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25) }'
}
echo "== $workload seed=$seed seconds=$seconds pairs=$pairs: ops_per_s =="
summary parent
summary change
paste "$tmp/parent.ops" "$tmp/change.ops" | awk '$2 > $1 { w++ } $2 < $1 { l++ } END { printf "change wins %d of %d pairs (%d losses)\n", w, NR, l }'
