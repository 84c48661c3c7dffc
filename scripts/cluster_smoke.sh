#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test for the scatter/gather cluster,
# used by the cluster CI job and runnable locally:
#
#   ./scripts/cluster_smoke.sh
#
# It boots one coordinator and two partitioned workers (real processes,
# real sockets), then asserts:
#   1. all three /healthz endpoints go ready,
#   2. a cluster query returns a complete NDJSON stream produced by the
#      merge-aggregate scatter path, and the coordinator's slow-query line
#      for it spends its time in scatter_wait + merge, with one child per
#      shard whose time is not in the coordinator's own states,
#   3. POST /dml is refused with 403 on the coordinator and on a worker
#      (the cluster does not distribute writes; one applied to a single
#      member would make scattered and local queries disagree),
#   4. cancelling the coordinator query mid-flight cancels the in-flight
#      worker requests (worker sched_inflight returns to 0),
#   5. after SIGKILLing a worker mid-operation the same query still
#      returns the identical rows, degraded onto the coordinator's
#      fallback shard ("degraded_nodes" on the trailer and
#      cluster_degraded_nodes > 0 in /metrics),
#   6. SIGTERM drains the coordinator cleanly.
set -euo pipefail

BASE_PORT=${SMOKE_PORT:-18180}
COORD="127.0.0.1:$BASE_PORT"
W0="127.0.0.1:$((BASE_PORT + 1))"
W1="127.0.0.1:$((BASE_PORT + 2))"
SF=0.002
SEED=11
BIN="$(mktemp -d)/aquoman-serve"
CLOG="$(mktemp)"; W0LOG="$(mktemp)"; W1LOG="$(mktemp)"; CSLOW="$(mktemp)"

echo "== building aquoman-serve"
go build -o "$BIN" ./cmd/aquoman-serve

# Workers get a simulated NAND read latency so cluster queries run long
# enough to cancel mid-flight; the coordinator's replica stays fast. The
# device overlaps the page reads of a batch, so a query's time is tR times
# its trips to the device, not times its pages: a worker's q1 shard fits
# one read window and makes two trips (the l_shipdate predicate's pages,
# then the streamed columns'), 3 s at tR = 1.5 s. That leaves the first
# trip still in flight at the 0.5 s cancel and the 0.3 s SIGKILL below.
echo "== starting 2 workers + 1 coordinator (SF $SF seed $SEED)"
"$BIN" -listen "$W0" -sf "$SF" -seed "$SEED" -partition 0/2 -pagelat 1500ms >"$W0LOG" 2>&1 &
W0_PID=$!
"$BIN" -listen "$W1" -sf "$SF" -seed "$SEED" -partition 1/2 -pagelat 1500ms >"$W1LOG" 2>&1 &
W1_PID=$!
"$BIN" -listen "$COORD" -sf "$SF" -seed "$SEED" \
    -coordinator -workers "http://$W0,http://$W1" \
    -slow-query 1ns -slow-query-log "$CSLOW" >"$CLOG" 2>&1 &
COORD_PID=$!
cleanup() {
    kill "$COORD_PID" "$W0_PID" "$W1_PID" 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup EXIT

wait_healthy() { # addr pid log name
    for i in $(seq 1 120); do
        if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
        if ! kill -0 "$2" 2>/dev/null; then
            echo "$4 died during startup:"; cat "$3"; exit 1
        fi
        sleep 0.5
    done
    echo "$4 healthz never came up"; cat "$3"; exit 1
}
echo "== waiting for /healthz x3"
wait_healthy "$W0" "$W0_PID" "$W0LOG" "worker 0"
wait_healthy "$W1" "$W1_PID" "$W1LOG" "worker 1"
wait_healthy "$COORD" "$COORD_PID" "$CLOG" "coordinator"

echo "== healthy cluster query (q1 scatters to both workers)"
HEALTHY=$(curl -fsS "http://$COORD/tpch?q=1")
echo "$HEALTHY" | tail -1
echo "$HEALTHY" | grep -q '"done":true' || { echo "missing done trailer"; exit 1; }
echo "$HEALTHY" | grep -q '"strategy":"merge-aggregate"' \
    || { echo "q1 did not scatter (no merge-aggregate strategy)"; exit 1; }
echo "$HEALTHY" | grep -q '"degraded_nodes"' \
    && { echo "healthy run reported degraded nodes"; exit 1; }
# (Not `curl | grep -q`: grep leaving at the first match fails curl's
# next write, and with it the pipeline.)
grep -q '^cluster_scatter_total' <<<"$(curl -fsS "http://$COORD/metrics")" \
    || { echo "coordinator /metrics missing cluster_scatter_total"; exit 1; }

echo "== the coordinator's slow-query line: scatter_wait + merge, shards as children"
python3 - "$CSLOW" <<'PY'
import json, sys
line = json.loads(open(sys.argv[1]).readline())
states, kids = line["states_ms"], line.get("children", [])
waited = states.get("scatter_wait", 0) + states.get("merge", 0)
if states.get("merge", 0) <= 0 or waited < 0.9 * line["wall_ms"] or sum(states.values()) > line["wall_ms"] + 0.001:
    sys.exit("coordinator line is not scatter_wait + merge: %r" % line)
if sorted(k["name"] for k in kids) != ["shard 0", "shard 1"]:
    sys.exit("want one child per shard: %r" % line)
# Each shard ran for about as long as the coordinator waited; had their
# time been added to the parent's states those would be near 3x wall.
if any(k["wall_ms"] > line["wall_ms"] or k["wall_ms"] < 0.5 * waited for k in kids):
    sys.exit("children do not span the scatter: %r" % line)
print("wall %.0f ms = scatter_wait %.0f + merge %.2f (+ glue); children %s" % (
    line["wall_ms"], states["scatter_wait"], states["merge"], [round(k["wall_ms"]) for k in kids]))
PY

echo "== /dml is refused on every cluster member"
for MEMBER in "$COORD coordinator" "$W0 partition"; do
    set -- $MEMBER
    DML_BODY=$(mktemp)
    DML_CODE=$(curl -s -o "$DML_BODY" -w '%{http_code}' -X POST "http://$1/dml" \
        -d '{"sql": "DELETE FROM region WHERE r_regionkey = 0"}')
    [ "$DML_CODE" = 403 ] || { echo "POST /dml on the $2 = $DML_CODE, want 403"; cat "$DML_BODY"; exit 1; }
    grep -q "\"error\".*$2" "$DML_BODY" || { echo "403 body does not name $2 mode:"; cat "$DML_BODY"; exit 1; }
done
echo "coordinator and worker both answer /dml with 403"

echo "== client cancel propagates to the workers"
# q1 runs for 3 s on the workers (see -pagelat above); curl gives up after
# 0.5s, which must kill the scatter RPCs and free the workers' slots.
curl -s --max-time 0.5 "http://$COORD/tpch?q=1" >/dev/null || true
for ADDR in "$W0" "$W1"; do
    FREED=""
    for i in $(seq 1 100); do
        INFLIGHT=$(curl -fsS "http://$ADDR/metrics" | awk '$1 == "sched_inflight" {print $2}')
        if [ "$INFLIGHT" = 0 ]; then FREED=yes; break; fi
        sleep 0.1
    done
    [ -n "$FREED" ] || { echo "worker $ADDR sched_inflight stuck at $INFLIGHT after cancel"; exit 1; }
done
echo "both workers back to sched_inflight=0"

echo "== SIGKILL worker 1 mid-operation"
# Launch a query, kill the worker while it is streaming partials, and let
# the in-flight request observe the death; the result must still be
# correct via the coordinator's fallback shard.
curl -s --max-time 10 "http://$COORD/tpch?q=1" >/dev/null &
INFLIGHT_CURL=$!
sleep 0.3
kill -9 "$W1_PID" 2>/dev/null || true
wait "$INFLIGHT_CURL" 2>/dev/null || true

echo "== degraded cluster query still returns identical rows"
DEGRADED=$(curl -fsS "http://$COORD/tpch?q=1")
echo "$DEGRADED" | tail -1
echo "$DEGRADED" | grep -q '"done":true' || { echo "degraded run missing done trailer"; exit 1; }
echo "$DEGRADED" | grep -q '"degraded_nodes":\[1\]' \
    || { echo "trailer does not report node 1 degraded"; exit 1; }
# Cell-exactness over the wire: the data rows must match the healthy run.
H_ROWS=$(echo "$HEALTHY" | grep '^\[')
D_ROWS=$(echo "$DEGRADED" | grep '^\[')
[ -n "$H_ROWS" ] || { echo "healthy run returned no rows"; exit 1; }
[ "$H_ROWS" = "$D_ROWS" ] || {
    echo "degraded rows differ from healthy rows:"
    diff <(echo "$H_ROWS") <(echo "$D_ROWS") || true
    exit 1
}
echo "rows identical under degradation"

echo "== cluster_degraded_nodes visible in /metrics"
DEGRADED_METRIC=$(curl -fsS "http://$COORD/metrics" \
    | awk '$1 ~ /^cluster_degraded_nodes\{node="1"\}$/ {print $2}')
[ -n "$DEGRADED_METRIC" ] && [ "$DEGRADED_METRIC" -gt 0 ] \
    || { echo "cluster_degraded_nodes{node=1} not incremented"; curl -fsS "http://$COORD/metrics" | grep ^cluster_ || true; exit 1; }
echo "cluster_degraded_nodes{node=1} = $DEGRADED_METRIC"

echo "== SIGTERM drains the coordinator cleanly"
kill -TERM "$COORD_PID"
for i in $(seq 1 100); do
    if ! kill -0 "$COORD_PID" 2>/dev/null; then break; fi
    sleep 0.1
    if [ "$i" = 100 ]; then echo "coordinator did not exit after SIGTERM"; cat "$CLOG"; exit 1; fi
done
wait "$COORD_PID"
RC=$?
[ "$RC" = 0 ] || { echo "coordinator exited with $RC"; cat "$CLOG"; exit 1; }
grep -q "aquoman-serve stopped" "$CLOG" || { echo "missing clean-shutdown log line"; cat "$CLOG"; exit 1; }

kill -TERM "$W0_PID" 2>/dev/null || true
trap - EXIT
cleanup
echo "== cluster smoke test passed"
