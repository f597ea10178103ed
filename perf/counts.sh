#!/usr/bin/env bash
# Prints the deterministic count columns of the three simbench workloads
# at seed 3, one "<workload> <metric> <value>" line each. Every pass of a
# seed yields the same counts, so a one-second traced run suffices. Run
# from the repository root:
#
#   bash perf/counts.sh > perf/counts-seed3.txt
#
# CI diffs the output against the committed perf/counts-seed3.txt. A
# change that moves a count on purpose regenerates the file and explains
# each moved column in CHANGES.md; wall-clock columns are not in it.
set -euo pipefail

columns='iosys\.delivered_pkts|sim\.events_per_pkt|sim\.cascades_per_kpkt|iosys\.drops_per_kpkt'
columns+='|cache\.(llc|mem)\.[a-z_]+|pcie\.dma\.[a-z_]+|core\.ceio\.slow_ratio'
columns+='|arch\.[A-Za-z]+\.events_per_pkt|datapath\.[A-Za-z]+\.calls_per_pkt'

out=$(mktemp)
trap 'rm -f "$out"' EXIT
for w in kv-5arch burst-bulk rack-failover; do
	bash simbench/run.sh --workload "$w" --seed 3 --seconds 1 --trace 1 > "$out"
	if ! grep -q '^runs_failed 0 ' "$out"; then
		echo "perf/counts.sh: $w: a run failed its output check" >&2
		grep -E '^(runs_failed|check)' "$out" >&2 || true
		exit 1
	fi
	grep -E "^metric ($columns) " "$out" | awk -v w="$w" '{ print w, $2, $3 }'
done
