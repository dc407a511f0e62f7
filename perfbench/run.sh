#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload city-live --seed 2009 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file stays under .bench_build (or $CARGO_TARGET_DIR when set), so the
# run reads and writes nothing outside the checkout. Without the rest of
# the repository next to perfbench/ the build fails and so does the run.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench/run.sh: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH=$PATH:/usr/local/go/bin
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work-dir "$out" "$@"
