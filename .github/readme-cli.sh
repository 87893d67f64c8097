#!/usr/bin/env bash
# The README's CLI block (synth, unmix, eval, eval --runs-dir, svd,
# render --groups) and the list of the files it writes that must match
# byte for byte between two runs.
#
#   readme-cli.sh run DIR CMD...   run the block in DIR (created), with CMD
#                                  as the entry point: `mssmf` or
#                                  `python -m mssmf.cli`
#   readme-cli.sh files DIR        list, sorted, every RAW64 file, sidecar,
#                                  manifest, CSV (except the wall-clock
#                                  trace.csv) and PGM map under DIR
set -euo pipefail

case "$1" in
  run)
    dir=$2
    shift 2
    mkdir -p "$dir"
    cd "$dir"
    "$@" synth --bases builtin --pixels 500 --snr-db 20 --seed 7 --out scene/
    "$@" unmix --input scene/data.raw64 --dims 6,18,30 --iters 100 --seed 9 \
      --out run/
    "$@" eval --est run/expanded.raw64 --truth scene/endmembers_true.raw64 \
      --snr-db 20 --out run/eval.json
    "$@" eval --runs-dir run --out agg.json
    "$@" svd --input scene/endmembers_true.raw64 --out spectrum.csv
    "$@" render --abundances run/abundances.raw64 --width 25 --height 20 \
      --groups scene/labels.csv --out maps/
    ;;
  files)
    cd "$2"
    find . \( -name '*.raw64' -o -name '*.json' -o -name '*.pgm' \
      -o \( -name '*.csv' ! -name trace.csv \) \) | sort
    ;;
  *)
    echo "usage: $0 run DIR CMD... | files DIR" >&2
    exit 2
    ;;
esac
