#!/usr/bin/env bash
# Builds the benchmark and cmd/fairallocd from the sources of the
# checkout it is run in, then runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload daemon-sparse --seed 1 --seconds 10 --trace 0
#
# Every build artefact, Go cache and run directory lives under
# .bench_build/ in the checkout; nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/fairallocd" ] || [ ! -d "$root/internal/serve" ]; then
	echo "run.sh: no e2efair sources here; run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config" "$out/home"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off

sha=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

go build -o "$out/bin/fairallocd" ./cmd/fairallocd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -fairallocd "$out/bin/fairallocd" -work "$out" -sha "$sha" "$@"
