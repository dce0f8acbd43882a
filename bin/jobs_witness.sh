#!/bin/sh
# -j determinism witness for the seed fan-out of `ctrl_sim run --seeds K`.
#
#   sh bin/jobs_witness.sh path/to/ctrl_sim.exe
#
# Runs the same three-seed distributed scenario at -j 1 and at -j 3, each in
# its own directory with the same relative output paths, and fails unless
# stdout, the merged --metrics-out dump and every per-seed --trace-out file
# are byte-identical. Seeds fan out over Pool domains, so state shared
# between seeds (a hoisted buffer, sink or generator) shows up here as a
# diff. Whether it does depends on how the domains interleave, so the -j 3
# run is repeated: one round misses a shared buffer about one time in ten
# on two cores, three rounds about one in a thousand.
set -eu
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
run() {
  mkdir "$dir/$1"
  (cd "$dir/$1" &&
    "$exe" run --controller dist --n0 60 --requests 120 --seeds 3 -j "$2" \
      --metrics-out m.prom --trace-out t.jsonl > out.txt)
}
run seq 1
for round in 1 2 3; do
  run "par$round" 3
  diff -r "$dir/seq" "$dir/par$round"
done
