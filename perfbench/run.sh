#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload cold-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs produce stays under .perfbench/ in
# the working directory: the Go build cache, the binary, generated
# corpora, reference traces, span files and daemon cache directories.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the repository root, which holds the sources it builds" >&2
	exit 1
fi
state="$PWD/.perfbench"
mkdir -p "$state/bin"
export GOCACHE="$state/gocache" GOPATH="$state/gopath" XDG_CONFIG_HOME="$state/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$state/bin/perfbench" .)
exec "$state/bin/perfbench" "$@"
