#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for aquoman-serve, used by the
# serve-integration CI job and runnable locally:
#
#   ./scripts/serve_smoke.sh
#
# It builds the server, starts it on a scratch TPC-H store with a
# simulated NAND read latency (so queries take long enough to cancel
# mid-flight), then asserts:
#   1. /healthz goes ready,
#   2. a SQL query over HTTP returns a complete NDJSON stream,
#   3. a client that disconnects mid-query frees its scheduler slot
#      (sched_inflight returns to 0 well before the query could finish),
#   4. /debug/pprof/ responds and /metrics exports query-latency
#      quantiles once a query has run,
#   5. multi-tenant serving: a tenant over its own admission quota is
#      shed with 429 + Retry-After (not the global-overload 503), another
#      tenant keeps getting served through the result cache, and the
#      per-tenant scheduler/latency series show up on /metrics,
#   6. the write path over HTTP: POST /dml INSERT is visible to the
#      next query (HTAP read through the un-merged delta), compile
#      errors are 400 and stale ?ifepoch= pre-checks 409, and every /dml
#      answer names its statement in X-Query-ID,
#   7. SIGTERM drains and exits cleanly,
#   8. the slow-query log (every query, -slow-query 1ns) checks the front
#      door's own arithmetic: each line names its query and breaks its
#      wall time into the fifteen lifecycle states, never more than wall,
#      and at least 90% of it on the queries that succeeded — the writes
#      included: the INSERT and the 409 each left the one line that carries
#      their X-Query-ID, the 400 (turned away before it ran, like a bad
#      /query) left none.
set -euo pipefail

ADDR="127.0.0.1:${SMOKE_PORT:-18080}"
URL="http://$ADDR"
BIN="$(mktemp -d)/aquoman-serve"
LOG="$(mktemp)"
SLOWLOG="$(mktemp)"

echo "== building aquoman-serve"
go build -o "$BIN" ./cmd/aquoman-serve

echo "== starting on $ADDR (SF 0.01, 500ms simulated NAND read latency, tenants + result cache)"
# The device overlaps the page reads of a batch, so a query's time is tR
# times its trips to the device, not times its pages. At SF 0.01 a fused
# scan is two or three read windows: q1 makes 4 trips (one predicate
# column, then the streamed columns, per window) and q6 makes 12, so at
# tR = 500ms q1 holds the slot for 2 s and q6 for 6 s, while a one-page
# lookup costs one trip. Queries with joins read page at a time and would
# run for minutes here; the script only ever queues or sheds those.
# alpha may queue at most 1 query; beta is unlimited with 4x the grant
# share. Untenanted requests run as the "default" tenant, so the generic
# assertions below are unaffected by the tenant flags.
"$BIN" -listen "$ADDR" -sf 0.01 -jobs 1 -queue 4 -pagelat 500ms \
    -tenants alpha:1,beta -tenant-weights beta=4 -result-cache 16 \
    -slow-query 1ns -slow-query-log "$SLOWLOG" >"$LOG" 2>&1 &
SERVER_PID=$!
cleanup() {
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

echo "== waiting for /healthz"
for i in $(seq 1 120); do
    if curl -fsS "$URL/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "server died during startup:"; cat "$LOG"; exit 1
    fi
    sleep 0.5
    if [ "$i" = 120 ]; then echo "healthz never came up"; cat "$LOG"; exit 1; fi
done
curl -fsS "$URL/healthz"; echo

echo "== SQL query over HTTP"
OUT=$(curl -fsS "$URL/query?q=select+count(*)+as+n+from+region")
echo "$OUT"
echo "$OUT" | grep -q '"done":true' || { echo "missing done trailer"; exit 1; }
echo "$OUT" | grep -q '^\[5\]$' || { echo "expected [5] regions"; exit 1; }

echo "== bad SQL is a 400"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$URL/query?q=selectt+junk")
[ "$CODE" = 400 ] || { echo "bad SQL returned $CODE, want 400"; exit 1; }

echo "== mid-flight cancellation frees the scheduler slot"
# q6 runs for 6 s (see -pagelat above); curl gives up after 0.5s, which
# cancels the request context server-side.
curl -s --max-time 0.5 "$URL/tpch?q=6" >/dev/null || true
FREED=""
for i in $(seq 1 100); do
    INFLIGHT=$(curl -fsS "$URL/metrics" | awk '$1 == "sched_inflight" {print $2}')
    if [ "$INFLIGHT" = 0 ]; then FREED=yes; break; fi
    sleep 0.1
done
[ -n "$FREED" ] || { echo "sched_inflight stuck at $INFLIGHT after client cancel"; cat "$LOG"; exit 1; }
echo "slot freed (sched_inflight back to 0)"
CANCELED=$(curl -fsS "$URL/metrics" | awk '$1 ~ /^sched_(canceled|completed)_total/ {print $1"="$2}')
echo "scheduler: $CANCELED"

echo "== query still works after the cancellation"
curl -fsS "$URL/query?q=select+count(*)+as+n+from+nation" | grep -q '"done":true' \
    || { echo "post-cancel query failed"; exit 1; }

echo "== /debug/pprof/ responds"
curl -fsS "$URL/debug/pprof/" | grep -qi profile \
    || { echo "pprof index missing or unrecognisable"; exit 1; }
curl -fsS "$URL/debug/pprof/cmdline" >/dev/null \
    || { echo "pprof cmdline endpoint failed"; exit 1; }

echo "== /metrics exports query-latency quantiles"
METRICS=$(curl -fsS "$URL/metrics")
echo "$METRICS" | grep -q 'query_latency_seconds{quantile=' \
    || { echo "missing query_latency_seconds quantile line"; echo "$METRICS" | head -40; exit 1; }
echo "$METRICS" | grep '^query_latency_seconds{quantile='

echo "== tenant quota: alpha over its queue quota is shed with 429"
# One alpha scan occupies the single slot, a second fills alpha's
# MaxQueued=1 quota; the third must be rejected per-tenant with 429 +
# Retry-After while the server as a whole is still accepting work.
# The three requests use distinct TPC-H queries that have not completed
# yet (q6 above was cancelled): identical (or already-cached) requests are
# served from the result cache / coalesced onto one flight and never reach
# admission control. The two that run are the fused scans, q1 for 2 s and
# then q6 for 6 s; q5 is shed and never runs.
curl -s --max-time 15 -H 'X-Tenant: alpha' "$URL/tpch?q=1" >/dev/null &
ALPHA1=$!
for i in $(seq 1 100); do
    BUSY=$(curl -fsS "$URL/metrics" | grep '^sched_tenant_inflight{tenant="alpha"}' | awk '{print $2}')
    if [ "${BUSY:-0}" = 1 ]; then break; fi
    sleep 0.1
    if [ "$i" = 100 ]; then echo "alpha scan never became in-flight"; cat "$LOG"; exit 1; fi
done
curl -s --max-time 15 -H 'X-Tenant: alpha' "$URL/tpch?q=6" >/dev/null &
ALPHA2=$!
for i in $(seq 1 100); do
    QUEUED=$(curl -fsS "$URL/metrics" | grep '^sched_tenant_queued{tenant="alpha"}' | awk '{print $2}')
    if [ "${QUEUED:-0}" = 1 ]; then break; fi
    sleep 0.1
    if [ "$i" = 100 ]; then echo "alpha never queued its second scan"; cat "$LOG"; exit 1; fi
done
HDRS=$(mktemp)
CODE=$(curl -s -D "$HDRS" -o /dev/null -w '%{http_code}' -H 'X-Tenant: alpha' "$URL/tpch?q=5")
[ "$CODE" = 429 ] || { echo "alpha over quota returned $CODE, want 429"; cat "$HDRS" "$LOG"; exit 1; }
grep -qi '^Retry-After:' "$HDRS" || { echo "429 without Retry-After header"; cat "$HDRS"; exit 1; }
echo "alpha shed with 429 + Retry-After"

echo "== another tenant still gets served (result cache + interactive lane)"
BETA_Q="$URL/query?q=select+count(*)+as+n+from+customer&tenant=beta"
curl -fsS "$BETA_Q" | grep -q '"done":true' || { echo "beta query failed"; exit 1; }
curl -fsS "$BETA_Q" | grep -q '"done":true' || { echo "beta repeat query failed"; exit 1; }
HITS=$(curl -fsS "$URL/metrics" | awk '$1 == "sched_result_cache_hits_total" {print $2}')
[ "${HITS:-0}" -ge 1 ] || { echo "result cache never hit (hits=${HITS:-none})"; exit 1; }
echo "beta served under alpha's saturation; result cache hits: $HITS"

echo "== per-tenant series on /metrics"
METRICS=$(curl -fsS "$URL/metrics")
for series in \
    'sched_tenant_grants_total{tenant="alpha"}' \
    'sched_tenant_rejected_total{tenant="alpha"}' \
    'query_latency_ns_count{tenant="beta"}'; do
    echo "$METRICS" | grep -q "^$series" \
        || { echo "missing per-tenant series $series"; echo "$METRICS" | grep tenant | head -20; exit 1; }
done
echo "per-tenant scheduler and latency series present"
# Let the backgrounded alpha scans finish/cancel so the drain below is
# only about the server, not our own stragglers.
wait "$ALPHA1" "$ALPHA2" 2>/dev/null || true

echo "== DML over HTTP: INSERT is visible to the next query"
BEFORE=$(curl -fsS "$URL/query?q=select+count(*)+as+n+from+region" | sed -n 's/^\[\([0-9]*\)\]$/\1/p')
# dml POSTs one statement; the body lands in $DML_BODY, the status in
# $DML_CODE and the response's X-Query-ID in $DML_ID.
DML_HDRS=$(mktemp)
dml() { # sql [query-string]
    DML_BODY=$(mktemp)
    DML_CODE=$(curl -s -D "$DML_HDRS" -o "$DML_BODY" -w '%{http_code}' -X POST -d "{\"sql\": \"$1\"}" "$URL/dml${2:-}")
    DML_ID=$(tr -d '\r' <"$DML_HDRS" | awk 'tolower($1) == "x-query-id:" {print $2}')
    [ -n "$DML_ID" ] || { echo "/dml answered $DML_CODE without X-Query-ID"; cat "$DML_HDRS"; exit 1; }
}
dml "INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (9, 'ASIA', 'smoke row')"
cat "$DML_BODY"
[ "$DML_CODE" = 200 ] || { echo "INSERT returned $DML_CODE, want 200"; exit 1; }
grep -q '"op":"insert"' "$DML_BODY" || { echo "bad /dml response"; exit 1; }
grep -q '"rows_affected":1' "$DML_BODY" || { echo "insert did not affect 1 row"; exit 1; }
INSERT_ID=$DML_ID
AFTER=$(curl -fsS "$URL/query?q=select+count(*)+as+n+from+region" | sed -n 's/^\[\([0-9]*\)\]$/\1/p')
[ "$AFTER" = "$((BEFORE + 1))" ] || { echo "count went $BEFORE -> $AFTER, want +1 (stale snapshot?)"; exit 1; }
echo "region count $BEFORE -> $AFTER through the un-merged delta"

echo "== DML compile error is a 400, stale epoch pre-check a 409"
dml "INSERT INTO nosuch VALUES (1)"
[ "$DML_CODE" = 400 ] || { echo "bad DML returned $DML_CODE, want 400"; exit 1; }
BAD_ID=$DML_ID
dml "DELETE FROM region" "?ifepoch=999999"
[ "$DML_CODE" = 409 ] || { echo "stale ifepoch returned $DML_CODE, want 409"; exit 1; }
grep -q '"epoch":' "$DML_BODY" || { echo "409 without the current epoch"; cat "$DML_BODY"; exit 1; }
CONFLICT_ID=$DML_ID
echo "error surface ok (400 compile, 409 stale epoch), ids $INSERT_ID $BAD_ID $CONFLICT_ID"

echo "== SIGTERM drains and exits cleanly (with the fresh write still queryable)"
kill -TERM "$SERVER_PID"
for i in $(seq 1 100); do
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then break; fi
    sleep 0.1
    if [ "$i" = 100 ]; then echo "server did not exit after SIGTERM"; cat "$LOG"; exit 1; fi
done
wait "$SERVER_PID"
RC=$?
trap - EXIT
[ "$RC" = 0 ] || { echo "server exited with $RC"; cat "$LOG"; exit 1; }
grep -q "aquoman-serve stopped" "$LOG" || { echo "missing clean-shutdown log line"; cat "$LOG"; exit 1; }

echo "== slow-query log: every line's states add up"
python3 - "$SLOWLOG" "$INSERT_ID" "$BAD_ID" "$CONFLICT_ID" <<'PY'
import json, sys
STATES = {"queue_wait", "compile", "rowsel", "read", "systolic", "swissknife", "sorter", "host",
          "device_read", "cache_hit", "coalesce_wait", "emit", "scatter_wait", "merge", "result_cache_hit"}
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
if len(lines) < 10:
    sys.exit("only %d slow-query lines: the log missed queries" % len(lines))
# A write is a query: the INSERT and the 409 each left exactly one line
# under the X-Query-ID their /dml response carried; the 400 never ran.
insert_id, bad_id, conflict_id = sys.argv[2:5]
by_id = {}
for l in lines:
    by_id.setdefault(l.get("id"), []).append(l)
for what, qid, want in (("INSERT", insert_id, 1), ("400", bad_id, 0), ("409", conflict_id, 1)):
    if len(by_id.get(qid, [])) != want:
        sys.exit("the /dml %s (id %s) left %d slow-query lines, want %d" % (what, qid, len(by_id.get(qid, [])), want))
if "error" in by_id[insert_id][0] or "error" not in by_id[conflict_id][0]:
    sys.exit("the INSERT's line carries an error or the 409's does not: %r %r" % (by_id[insert_id][0], by_id[conflict_id][0]))
failed = 0
for l in lines:
    states = l.get("states_ms") or {}
    if not l.get("id") or "wall_ms" not in l or not states:
        sys.exit("line lacks id, wall_ms or states_ms: %r" % l)
    if set(states) - STATES:
        sys.exit("unknown states %s in %r" % (sorted(set(states) - STATES), l))
    # wall_ms is printed to the microsecond; the states are not rounded.
    if sum(states.values()) > l["wall_ms"] + 0.001:
        sys.exit("states add up to %.3f ms, past wall: %r" % (sum(states.values()), l))
    if "error" in l:
        failed += 1
    elif l["coverage"] < 0.9:
        sys.exit("coverage %.2f on a query that succeeded: %r" % (l["coverage"], l))
if failed == 0:
    sys.exit("no line carries the mid-flight cancel's error")
print("%d slow-query lines, %d with an error, all within wall" % (len(lines), failed))
PY

echo "== smoke test passed"
