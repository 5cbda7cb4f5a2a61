#!/bin/sh
# Golden stdout of the paper binaries (bench tables/figures and examples).
#
#   golden.sh check BINARY GOLDEN   run BINARY, diff its stdout with GOLDEN
#   golden.sh regen BUILD_DIR [NAME...]
#                                   rewrite tests/golden/NAME.txt from
#                                   BUILD_DIR/{bench,examples}/NAME (default:
#                                   every NAME that has a golden file)
#
# Each binary runs at MSC_FAST=1 with every other MSC_* variable unset, in
# a fresh directory that is also its MSC_OUT_DIR; that directory's path is
# printed as <MSC_OUT_DIR>. A PR that changes a golden file says why.
set -eu

here=$(cd "$(dirname "$0")" && pwd)

# run BINARY OUT: normalized stdout of BINARY into OUT; fails if it fails.
run() {
  bin=$1
  out=$2
  dir=$(mktemp -d)
  for v in $(env | sed -n 's/^\(MSC_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$v"
  done
  status=0
  (cd "$dir" && MSC_FAST=1 MSC_OUT_DIR="$dir" "$bin" </dev/null >"$dir/stdout") ||
    status=$?
  sed "s|$dir|<MSC_OUT_DIR>|g" "$dir/stdout" >"$out"
  rm -rf "$dir"
  if [ "$status" -ne 0 ]; then
    echo "golden: $bin exited with status $status" >&2
    return 1
  fi
}

case "${1:-}" in
  check)
    [ $# -eq 3 ] || { echo "usage: $0 check BINARY GOLDEN" >&2; exit 2; }
    actual=$(mktemp)
    trap 'rm -f "$actual"' EXIT
    run "$2" "$actual"
    diff -u "$3" "$actual"
    ;;
  regen)
    [ $# -ge 2 ] || { echo "usage: $0 regen BUILD_DIR [NAME...]" >&2; exit 2; }
    build=$(cd "$2" && pwd)
    shift 2
    if [ $# -eq 0 ]; then
      set -- $(cd "$here" && ls *.txt | sed 's/\.txt$//')
    fi
    for name in "$@"; do
      if [ -x "$build/bench/$name" ]; then
        bin="$build/bench/$name"
      elif [ -x "$build/examples/$name" ]; then
        bin="$build/examples/$name"
      else
        echo "golden: no binary $name under $build" >&2
        exit 1
      fi
      echo "golden: $name" >&2
      run "$bin" "$here/$name.txt"
    done
    ;;
  *)
    echo "usage: $0 check BINARY GOLDEN | regen BUILD_DIR [NAME...]" >&2
    exit 2
    ;;
esac
