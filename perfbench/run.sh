#!/usr/bin/env bash
# Builds the session benchmark from the source tree it sits in and runs it
# once. Run from the repository root:
#
#   bash perfbench/run.sh --workload short-catalog --seed 1 --seconds 25 --trace 0
#
# --workload all runs the three workloads one after another, each in a
# process of its own.
#
# Everything the build writes (binary, Go build cache, telemetry) stays under
# .bench_build/ in the current directory. The last line of standard output is
# the JSON result; see perfbench/doc.go for the workloads and metrics.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

# The checkout may not be a git repository, so the recording names the source
# by a digest of every Go source and module file besides the git revision.
rev=none
if [[ -e "$root/.git" ]]; then
	rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)
fi
src=$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name 'go.mod' \) -type f -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-12)

(cd "$root/perfbench" && go build -ldflags "-X main.revision=$rev -X main.sourceDigest=$src" -o "$out/perfbench" .)
if [[ "${1:-}" == --workload && "${2:-}" == all ]]; then
	shift 2
	for w in short-catalog short-distinct long-noisy-durable; do
		"$out/perfbench" --workload "$w" "$@"
	done
	exit 0
fi
exec "$out/perfbench" "$@"
