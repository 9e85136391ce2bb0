#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, vet, build, and the full test suite
# under the race detector. Run from anywhere; exits non-zero on the first
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required for:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# benchpair.sh runs minutes of paired benchmarks, so CI only parses it.
echo "== bash -n scripts/benchpair.sh =="
bash -n scripts/benchpair.sh

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

# kdlint enforces the determinism / zero-copy / error-handling invariants
# statically (see DESIGN.md §9). It needs the build above: analysis reads
# compiled export data out of the build cache. The -audit pass inventories
# every //kdlint:allow directive and holds the per-analyzer totals to the
# committed budget (scripts/kdlint_budget.txt): suppressions are a ratchet
# and may only shrink.
echo "== kdlint (findings + suppression audit) =="
go run ./cmd/kdlint -audit -budget scripts/kdlint_budget.txt ./...

# The failure-handling and sharded-kernel stack first: the DES kernel (both
# the single heap and the conservative-parallel ShardGroup), the sharded
# fabric, the fault injector, the broker failover logic, and the consumer-
# group rebalance matrix (concurrent scenario replicas) are where a data
# race would corrupt everything downstream, so they gate the full suite.
# The shard test matrices run parallel>1 configurations, so this is the
# shards>1 race gate: real goroutines executing shard windows concurrently.
# perfbench/ is its own module (it requires this one through a replace
# directive), so ./... above never reaches it. Build and test it here so a
# go.mod bump or an API change in the root module cannot silently break the
# benchmark; -short skips its multi-rep digest test.
echo "== perfbench module (build + short tests) =="
(cd perfbench && go build -o /dev/null . && go test -short .)

echo "== go test -race (sim, fabric, chaos, core, group) =="
go test -race ./internal/sim/ ./internal/fabric/ ./internal/chaos/ ./internal/core/ ./internal/group/

echo "== go test -race ./... =="
go test -race ./...

echo "== go test -bench (1 iteration, compile + smoke) =="
go test -run=NONE -bench=. -benchtime=1x ./...

# The committed full run (results_all.txt) must cover exactly the registered
# experiments, in registry order — a figure added to the bench registry but
# never regenerated into results_all.txt (or vice versa) is drift.
echo "== figure-table drift (results_all.txt vs kdbench registry) =="
diff <(go run ./cmd/kdbench -list | awk '{print $1}') \
     <(sed -n 's/^# \([^:]*\):.*/\1/p' results_all.txt) \
    || { echo "results_all.txt is out of sync with the experiment registry; regenerate with: go run ./cmd/kdbench -fig all > results_all.txt" >&2; exit 1; }

echo "all checks passed"
