#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it: the driver's command.
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, its own settings) is kept under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
# Without the module there is nothing to build: say so before any process
# is started.
if [[ ! -f "$root/go.mod" || ! -d "$root/bench" ]]; then
	echo "bench/run.sh: no go.mod in $root: run it from the root of a checkout that holds the program" >&2
	exit 3
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=
# The go command's first run with a fresh settings directory starts a
# detached telemetry child that outlives it. Mode "off" keeps go from
# starting it, so no process is left behind when this script ends.
echo off >"$build/config/go/telemetry/mode"

# Each step runs as a child that is waited for; a signal to this script
# stops the running child and waits until it has ended.
child=
stop() {
	if [[ -n "$child" ]]; then
		kill -TERM "$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	exit 143
}
trap stop INT TERM HUP

go build -o "$build/igepa-stackbench" ./bench &
child=$!
wait "$child"

"$build/igepa-stackbench" "$@" &
child=$!
code=0
wait "$child" || code=$?
exit "$code"
