#!/usr/bin/env bash
# The repo benchmark. Builds the nested workspace offline, then runs it.
#
#   benchmark/run.sh                                   every workload, untraced + traced, seed 42
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     one run, one JSON result line
#   benchmark/run.sh run --repeat 5 --out base.json    results with quartiles, for `compare`
#   benchmark/run.sh compare OLD.json NEW.json | list | run --check-determinism
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Where results go (benchmark/out), wherever the script is called from.
export PRETE_BENCH_DIR="$here"
if [ "$#" -eq 0 ]; then
  set -- run --seed 42
fi
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
