#!/usr/bin/env bash
# Coverage survey and gate: which code can a product entry point reach?
# Builds every command, every example and the live benchmark with coverage
# over repro/..., then runs the entry points in two groups:
#
#   gated     sophon-bench's evaluation, record generators and chaos classes,
#             the examples, sophon-profile, datagen, and a storage server
#             driven by sophon-train under each policy and flag family. Each
#             is a function of its inputs, so the functions they reach 0 times
#             are a function of the commit. They write to $work/cov.
#   advisory  benchmarks/live, whose runs last a fixed time rather than a
#             fixed number of epochs. It writes to $work/cov-live and is
#             printed, never gated.
#
# Every function the gated runs reach 0 times needs a line in
# .github/coverage-reasons.txt (its format is described there). The gate
# fails on an unreached function with no reason, on a reason whose function
# no longer exists, on a reason of an unknown kind, and on a fault reason
# whose named test does not exist. A reasoned function the runs did reach is
# printed, as is an entry point that exits non-zero; neither fails the gate.
#
# Usage: .github/coverage-survey.sh [work-dir]   (default: a fresh temp dir)
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${1:-$(mktemp -d)}"
bin="$work/bin" out="$work/out" gated="$work/cov" live="$work/cov-live"
reasons="$root/.github/coverage-reasons.txt"

# The monitor runs read /stats and /metrics with curl. Without it those
# handlers go unreached and the gated list would depend on the host.
if ! command -v curl > /dev/null; then
	echo "coverage-survey: curl is required (the monitoring endpoints are read with it)" >&2
	exit 2
fi

export GOCOVERDIR="$gated"
mkdir -p "$bin" "$out" "$gated" "$live"
cd "$root"

set -e
go build -cover -coverpkg=repro/... -o "$bin/" ./cmd/... ./examples/...
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
	for p in healthz stats metrics; do
		run "monitor-$2-$p" curl -fsS "http://$1/$p"
	done
}

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

# The offline tools: a plan for sophon-train, a dataset directory for
# sophon-server.
n=96
run profile "$bin/sophon-profile" -n "$n" -mbps 100 -cores 4 -model resnet18 -dump-plan "$out/plan.json"
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
	-job 7 -model resnet50 -mbps 100 -storage-cores 2
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

# Advisory: the benchmark's four workloads, one short untraced run each.
if (cd benchmarks && go build -cover -coverpkg=repro/... -o "$bin/live" ./live); then
	run live env GOCOVERDIR="$live" "$bin/live" -workload all -seed 1 -seconds 1 -trace 0
else
	echo "FAIL  live: did not build"
	failed=$((failed + 1))
fi

echo
echo "== coverage by package (gated runs)"
go tool covdata percent -i "$gated"

# The gate. Every function of the gated runs, keyed "file function" with the
# file relative to the repository root; the reasons file; the test names a
# fault reason may cite.
go tool covdata func -i "$gated" | awk '$1 != "total" {
	f = $1; sub(/^repro\//, "", f); sub(/:[0-9]+:$/, "", f); print f, $2, $3 }' > "$work/funcs.txt"
grep -rhoE --include='*_test.go' '^func Test[A-Za-z0-9_]+\(' . | sed 's/^func //; s/($//' | sort -u > "$work/tests.txt"
echo
echo "== functions the gated runs reached 0 times, with their reasons"
awk -v reasons="$reasons" -v tests="$work/tests.txt" '
	function fail(msg) { print "GATE  " msg; bad++ }
	FILENAME == tests { test[$1] = 1; next }
	{ exists[$1 " " $2] = 1; if ($3 == "0.0%") unreached[$1 " " $2] = 1 }
	END {
		split("fault name iface oracle seam bench", ks, " ")
		for (i in ks) known[ks[i]] = 1
		while ((getline line < reasons) > 0) {
			sub(/#.*/, "", line)
			if (split(line, f, " ") == 0) continue
			key = f[1] " " f[2]
			if (key in kind) fail("two reasons for " key)
			kind[key] = f[3]
			if (!(f[3] in known)) fail("unknown kind \"" f[3] "\" for " key)
			else if (f[3] == "fault" && !(f[4] in test)) fail("fault reason for " key " names no test: \"" f[4] "\"")
			else if (f[3] == "name" && f[2] !~ /(^|\.)(String|Name)$/) fail("name reason for " key ", which is not a String or Name method")
			if (!(key in exists)) fail("reason for " key ", which no longer exists")
			else if (!(key in unreached)) print "note  " key " was reached; its reason can go"
		}
		n = 0
		sort = "sort"
		for (key in unreached) {
			n++
			if (key in kind) printf "%-6s %s\n", kind[key], key | sort
			else { printf "GATE   %s was reached 0 times and has no reason\n", key | sort; bad++ }
		}
		fflush()
		close(sort)
		printf "\n%d unreached, %d gate failure(s)\n", n, bad
		exit (bad > 0)
	}' "$work/tests.txt" "$work/funcs.txt"
gate=$?

echo
echo "== advisory: functions only benchmarks/live reaches (not gated)"
go tool covdata func -i "$gated,$live" 2> /dev/null | awk '$1 != "total" && $3 != "0.0%" {
	f = $1; sub(/^repro\//, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' |
	grep -Fxf <(awk '$3 == "0.0%" { print $1, $2 }' "$work/funcs.txt") || true

echo
echo "$failed entry point(s) failed (printed, not gated)"
exit "$gate"
