#!/bin/sh
# Regenerate every table in EXPERIMENTS.md at paper scale.
#
#   ./scripts/reproduce.sh [outdir]
#
# Takes a few minutes on a 2-core machine. Results are deterministic for a
# given -seed.
set -eu
out="${1:-results}"
mkdir -p "$out"
go build -o "$out/ecgsim" ./cmd/ecgsim
# ecgsim -out appends, so clear the previous run's tables first.
rm -f "$out/figures.txt" "$out/figure6-averaged.txt" "$out/ablations.txt" "$out/extensions.txt"

"$out/ecgsim" -fig all        -scale 1 -seed 1 -out "$out/figures.txt"
"$out/ecgsim" -fig 6          -scale 1 -seed 1 -trials 5 -out "$out/figure6-averaged.txt"
"$out/ecgsim" -fig ablations  -scale 1 -seed 1 -out "$out/ablations.txt"
"$out/ecgsim" -fig extensions -scale 1 -seed 1 -out "$out/extensions.txt"

echo "tables written to $out/"
