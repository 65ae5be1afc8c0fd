#!/usr/bin/env bash
# Coverage survey: which code can a product entry point reach? Builds every
# command, every example and the live benchmark with coverage over repro/...,
# runs each entry point under one GOCOVERDIR (the benchmark's four workloads,
# sophon-bench's evaluation, record generators and chaos classes, the
# examples, and a storage server driven by sophon-train under each policy and
# flag family), then prints per-package coverage and every function the runs
# reached 0 times. A failed run is reported and the survey goes on; the
# script prints and does not gate.
#
# Usage: .github/coverage-survey.sh [work-dir]   (default: a fresh temp dir)
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${1:-$(mktemp -d)}"
bin="$work/bin" out="$work/out"
export GOCOVERDIR="$work/cov"
mkdir -p "$bin" "$out" "$GOCOVERDIR"
cd "$root"

set -e
go build -cover -coverpkg=repro/... -o "$bin/" ./cmd/... ./examples/...
(cd benchmarks && go build -cover -coverpkg=repro/... -o "$bin/live" ./live)
set +e

failed=0
# run NAME CMD...: one entry point, its output kept in $out/NAME.log.
run() {
	local name=$1 start=$SECONDS
	shift
	if "$@" > "$out/$name.log" 2>&1; then
		echo "ok    $name ($((SECONDS - start)) s)"
	else
		echo "FAIL  $name (exit $?): $*"
		tail -5 "$out/$name.log"
		failed=$((failed + 1))
	fi
}

# server NAME FLAGS...: starts sophon-server in the background and waits
# until it serves; stop_server sends it SIGINT so its coverage is written.
server_pid=
server() {
	local name=$1
	shift
	"$bin/sophon-server" "$@" > "$out/$name.log" 2>&1 &
	server_pid=$!
	for _ in $(seq 100); do
		grep -q 'serving ' "$out/$name.log" && return 0
		kill -0 "$server_pid" 2> /dev/null || break
		sleep 0.1
	done
	echo "FAIL  $name: server did not come up"
	tail -5 "$out/$name.log"
	failed=$((failed + 1))
}
stop_server() {
	kill -INT "$server_pid" 2> /dev/null
	wait "$server_pid" 2> /dev/null
}
trap 'kill "$server_pid" 2> /dev/null' EXIT

# monitor ADDR NAME: reads the running server's monitoring endpoints.
monitor() {
	command -v curl > /dev/null || return 0
	for p in healthz stats metrics; do
		run "monitor-$2-$p" curl -fsS "http://$1/$p"
	done
}

# The benchmark's four workloads, one short untraced run each.
run live "$bin/live" -workload all -seed 1 -seconds 1 -trace 0

# sophon-bench: the evaluation, the six record generators, the chaos classes.
run bench-eval "$bin/sophon-bench" -seed 2024 -o "$out/eval.txt" -csv "$out/csv"
run bench-version "$bin/sophon-bench" -version
for g in load fidelity fleet prepsched prefetch adaptive; do
	run "bench-$g" "$bin/sophon-bench" "-$g" "$out/$g.json"
done
for c in none delays corrupt mixed partition; do
	run "chaos-$c" "$bin/sophon-bench" -chaos.seed 7 -chaos.class "$c"
done
run chaos-duration "$bin/sophon-bench" -chaos.seed 7 -chaos.duration 1s

for e in adaptive fault_tolerance limited_cpu multitenant policy_comparison quickstart sharded; do
	run "example-$e" "$bin/$e"
done

# The offline tools: a plan and a trace for sophon-train, a dataset directory
# for sophon-server.
n=96
run profile "$bin/sophon-profile" -n "$n" -mbps 100 -cores 4 -model resnet18 \
	-dump-plan "$out/plan.json" -dump-trace "$out/profile-trace.json"
run profile-imagenet "$bin/sophon-profile" -profile imagenet -n 200 -seed 3
run datagen "$bin/datagen" -n "$n" -min-dim 64 -max-dim 160 -seed 2 -out "$out/data"

train=("$bin/sophon-train" -epochs 2 -workers 2 -batch 8 -probe-batches 3 -request-timeout 20s)

# One shaped server with monitoring: every policy, the flag families, a plan
# file, the adaptive control plane.
addr=127.0.0.1:17170
server server -addr "$addr" -n "$n" -max-dim 160 -cores 2 -mbps 200 \
	-max-inflight 8 -idle-timeout 30s -http 127.0.0.1:17179
for p in sophon sophon-guard nooff alloff resizeoff fastflow; do
	run "train-$p" "${train[@]}" -addr "$addr" -policy "$p"
done
run train-flags "${train[@]}" -addr "$addr" -policy alloff -fetch-batch 4 -lookahead 3 \
	-lookahead-horizon 32 -staging-bytes 1000000 -max-inflight 8 -compute-cores 1 \
	-job 7 -model resnet50 -mbps 100 -storage-cores 2 -heavy-threshold 3 -dump-trace "$out/train-trace.json"
run train-plan-file "${train[@]}" -addr "$addr" -plan-file "$out/plan.json"
run train-adaptive "${train[@]}" -addr "$addr" -epochs 4 -adaptive -drift-threshold 0.3 -drift-hysteresis 1
monitor 127.0.0.1:17179 shaped
stop_server

# Two shards behind admission control, driven through the fan-out client.
server server-sharded -addr 127.0.0.1:17180 -n "$n" -max-dim 160 -shards 2 -cores 1 \
	-admit-bytes 4000000 -admit-queue 8 -retry-after 5ms -slowdown 2 -seed 4 -http 127.0.0.1:17189
run train-sharded "${train[@]}" -shard-addrs 127.0.0.1:17180,127.0.0.1:17181 \
	-degraded -attempts 2 -backoff 10ms -policy alloff
monitor 127.0.0.1:17189 sharded
stop_server

# The datagen directory, served as written.
server server-data-dir -addr 127.0.0.1:17190 -data-dir "$out/data" -crop 96
run train-data-dir "${train[@]}" -addr 127.0.0.1:17190 -crop 96 -policy sophon
stop_server

echo
echo "== coverage by package"
go tool covdata percent -i "$GOCOVERDIR"
echo
echo "== functions no entry point reached"
go tool covdata func -i "$GOCOVERDIR" | awk '$NF == "0.0%"' | grep -v '^total'
echo
echo "$failed entry point(s) failed"
