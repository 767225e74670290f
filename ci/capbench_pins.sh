#!/usr/bin/env bash
# Runs every capbench workload at each pinned seed for one second and
# fails when a run fails one of capbench's own checks (conservation laws,
# output floors, digest consistency) or when its warm-up decision digest
# differs from the pin in ci/decision-digests.txt.
#
# Usage, from anywhere in the repository:
#
#     ci/capbench_pins.sh
set -euo pipefail

cd "$(dirname "$0")/.."
out="$(mktemp)"
trap 'rm -f "$out"' EXIT
mismatches=0
while read -r workload seed pin <&3; do
    case "$workload" in '' | '#'*) continue ;; esac
    start=$SECONDS
    python3 capbench/run.py --workload "$workload" --seed "$seed" --seconds 1 | tee "$out"
    # The check line ends "(<this pass> vs <warm-up>)"; the warm-up's
    # digest is the one pinned.
    got=$(sed -nE 's/.*decision digest matches .*\([0-9a-f]{16} vs ([0-9a-f]{16})\)$/\1/p' "$out")
    if [[ "$got" != "$pin" ]]; then
        echo "::error::$workload seed $seed: warm-up decision digest ${got:-missing}, pinned $pin"
        mismatches=$((mismatches + 1))
    fi
    echo "capbench pin: $workload seed $seed digest ${got:-missing} (pinned $pin), $((SECONDS - start)) s"
done 3<ci/decision-digests.txt
if ((mismatches > 0)); then
    echo "$mismatches decision digest(s) differ from ci/decision-digests.txt" >&2
    exit 1
fi
