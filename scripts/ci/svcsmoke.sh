#!/usr/bin/env bash
# Crash-recovery smoke for the risasvc daemon: the end-to-end check of
# the restore-then-replay contract, on top of the unit equivalence suite
# in internal/svc.
#
# Run A places a workload against an uncrashed daemon and dumps its
# placement log. Run B sends the same trace, paced, and the daemon is
# kill -9'd mid-run and restarted on the same data directory while the
# client retries through the outage with capped backoff; requests the
# journal had already made durable dedup on retry, the rest re-place.
# Once both runs have decided every VM, the two /placements logs must be
# byte-identical — a daemon that lost, duplicated or reordered a single
# decision across the crash diffs here.
#
# Both daemons snapshot every 64 records (-snapshot-every 64): the kill
# lands ≈100 records in, so the restart restores a snapshot and replays a
# journal suffix. At the default cadence (4096) no snapshot would exist
# yet and the smoke would only ever exercise replay from genesis.
#
# Both runs use one client worker: placement logs are sequence-exact, so
# the comparison needs a deterministic request order (saturation runs
# with -workers N>1 trade that away; this smoke does not).
#
# Usage: svcsmoke.sh
# Environment: PORT (default 18231), COUNT (default 300, VMs per run),
#   DIR (default svc-smoke, scratch + report directory).
set -euo pipefail

PORT=${PORT:-18231}
COUNT=${COUNT:-300}
DIR=${DIR:-svc-smoke}

rm -rf "$DIR"
mkdir -p "$DIR"
go build -o "$DIR/risasvc" ./cmd/risasvc
go build -o "$DIR/workloadgen" ./cmd/workloadgen

trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "daemon at $1 never became ready" >&2
  return 1
}

echo "== svc-smoke: run A (uncrashed reference)"
"$DIR/risasvc" -addr "127.0.0.1:$PORT" -dir "$DIR/a-data" -snapshot-every 64 &
A_PID=$!
wait_ready "http://127.0.0.1:$PORT"
"$DIR/workloadgen" -url "http://127.0.0.1:$PORT" -count "$COUNT"
curl -fsS "http://127.0.0.1:$PORT/placements" >"$DIR/a.log"
kill -TERM "$A_PID"
wait "$A_PID" || true

echo "== svc-smoke: run B (kill -9 mid-run, restart, client retries through)"
PORT_B=$((PORT + 1))
"$DIR/risasvc" -addr "127.0.0.1:$PORT_B" -dir "$DIR/b-data" -snapshot-every 64 &
B_PID=$!
wait_ready "http://127.0.0.1:$PORT_B"
# Pace the client so the crash lands mid-run (~1/3 through), not after it.
"$DIR/workloadgen" -url "http://127.0.0.1:$PORT_B" -count "$COUNT" -rate 100 &
CLIENT_PID=$!
sleep 1
kill -9 "$B_PID"
wait "$B_PID" || true
if [ ! -s "$DIR/b-data/snapshot.gob" ]; then
  echo "the kill landed before the first snapshot: the restart would replay from genesis only" >&2
  exit 1
fi
"$DIR/risasvc" -addr "127.0.0.1:$PORT_B" -dir "$DIR/b-data" -snapshot-every 64 &
B2_PID=$!
wait "$CLIENT_PID"
curl -fsS "http://127.0.0.1:$PORT_B/placements" >"$DIR/b.log"
kill -TERM "$B2_PID"
wait "$B2_PID" || true

diff "$DIR/a.log" "$DIR/b.log"
echo "svc-smoke: $(wc -l <"$DIR/a.log") placements identical across kill -9 + restore-then-replay"
