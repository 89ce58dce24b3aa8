#!/bin/sh
# serve_smoke.sh boots the servesim daemon on a throwaway port, issues one
# /run query and two /serve queries (the testbed and a disaggregated
# fat-tree), checks that /healthz answers and that /stats reports both
# result tiers, then sends SIGTERM and verifies the daemon drains and exits
# cleanly. Exercised by `make serve-smoke` and the CI serve-smoke job.
set -eu

ADDR="127.0.0.1:18080"
# A daemon left on the fixed port would answer every query below while ours
# fails to bind, so refuse to start rather than probe the wrong process.
if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
	echo "serve-smoke: something already answers on $ADDR; stop it first" >&2
	exit 1
fi
BIN="${TMPDIR:-/tmp}/servesim"
go build -o "$BIN" ./cmd/servesim
"$BIN" -addr "$ADDR" -parallel 2 -drain 5s &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT
# dash skips the EXIT trap when a signal kills the shell; turning INT, TERM
# and HUP into an ordinary exit makes it run, so an interrupted smoke still
# stops its daemon.
trap 'exit 1' INT TERM HUP

# Wait for the listener (up to ~5s).
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && { echo "serve-smoke: daemon never came up" >&2; exit 1; }
	sleep 0.1
done

RUN=$(curl -sf -X POST "http://$ADDR/run" \
	-d '{"strategy":"ddp","layers":2,"iterations":1,"warmup":1}')
echo "$RUN" | grep -q '"attained_tflops"' || {
	echo "serve-smoke: /run response missing summary fields: $RUN" >&2
	exit 1
}

# The testbed body runs the scheduler's one-replica case; the fat-tree body
# runs its multi-replica case, with a prefill pool shipping KV caches.
for BODY in '{"requests":8,"prompt_tokens":128,"decode_tokens":8}' \
	'{"requests":8,"topo":"fat-tree:nodes=8","disaggregated":true}'; do
	SERVE=$(curl -sf -X POST "http://$ADDR/serve" -d "$BODY")
	echo "$SERVE" | grep -q '"goodput_rps"' || {
		echo "serve-smoke: /serve $BODY response missing latency fields: $SERVE" >&2
		exit 1
	}
done

STATS=$(curl -sf "http://$ADDR/stats")
for TIER in '"train.results"' '"serve.results"'; do
	echo "$STATS" | grep -q "$TIER" || {
		echo "serve-smoke: /stats missing tier $TIER: $STATS" >&2
		exit 1
	}
done

# Graceful shutdown: SIGTERM must drain and exit zero within the deadline.
kill -TERM "$PID"
if ! wait "$PID"; then
	echo "serve-smoke: daemon exited non-zero on SIGTERM" >&2
	exit 1
fi
trap - EXIT

echo "serve-smoke: ok"
