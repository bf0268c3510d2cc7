#!/usr/bin/env bash
# Multi-process cluster smoke test: three region-server processes, one
# router process, SQL ingest and scan over real TCP, then a kill of one
# region server mid-workload to prove no acknowledged write is lost
# (replication 1). CI runs this; it is also handy locally:
#
#   ./scripts/cluster-smoke.sh
set -euo pipefail

WORK=$(mktemp -d)
BIN="$WORK/just-server"
HTTP_PORT=${HTTP_PORT:-18045}
RPC1=19051 RPC2=19052 RPC3=19053
PIDS=()

cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/just-server

for i in 1 2 3; do
    port_var="RPC$i"
    "$BIN" -role=region -dir "$WORK/region$i" -rpc-addr "127.0.0.1:${!port_var}" \
        -node-id "$i" >"$WORK/region$i.log" 2>&1 &
    PIDS+=($!)
    disown $!
done

"$BIN" -role=router -dir "$WORK/router" -addr "127.0.0.1:$HTTP_PORT" \
    -peers "127.0.0.1:$RPC1,127.0.0.1:$RPC2,127.0.0.1:$RPC3" \
    -replication 1 -breaker-failures 2 -probe-interval 500ms \
    >"$WORK/router.log" 2>&1 &
PIDS+=($!)
disown $!

BASE="http://127.0.0.1:$HTTP_PORT"
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/api/v1/health" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
curl -fsS "$BASE/api/v1/health" >/dev/null || {
    echo "FAIL: router never became healthy"
    cat "$WORK/router.log"
    exit 1
}

sql() {
    curl -fsS -X POST "$BASE/api/v1/sql" -H 'Content-Type: application/json' \
        -d "{\"user\":\"smoke\",\"sql\":\"$1\"}"
}

sql "CREATE TABLE p (fid integer:primary key, name string, geom point)" | grep -q created

ROWS=40
for i in $(seq 1 $ROWS); do
    sql "INSERT INTO p VALUES ($i, 'poi-$i', st_makePoint(116.$((i % 10)), 39.$((i % 10))))" >/dev/null
done

TOTAL=$(sql "SELECT fid FROM p" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ "$TOTAL" = "$ROWS" ] || { echo "FAIL: scan over TCP saw $TOTAL rows, want $ROWS"; exit 1; }

# Kill region server 1 (the bootstrap primary) mid-workload. Every write
# above was acknowledged only after the synchronous ship to its replica,
# so the router must fail over and still serve all of them.
kill -9 "${PIDS[0]}"

for i in $(seq $((ROWS + 1)) $((ROWS + 10))); do
    sql "INSERT INTO p VALUES ($i, 'poi-$i', st_makePoint(116.5, 39.5))" >/dev/null
done

TOTAL=$(sql "SELECT fid FROM p" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ "$TOTAL" = "$((ROWS + 10))" ] || {
    echo "FAIL: after killing a region server, scan saw $TOTAL rows, want $((ROWS + 10))"
    exit 1
}

curl -fsS "$BASE/api/v1/admin/topology" | grep -q '"mode":"router"' ||
    { echo "FAIL: topology endpoint"; exit 1; }

# The router stays healthy with a peer down, and its disk-pressure
# watchdog reports no pressure.
curl -fsS "$BASE/api/v1/health" | grep -q '"status":"ok"' ||
    { echo "FAIL: router health"; exit 1; }
curl -fsS "$BASE/api/v1/metrics" | grep -q '"disk_pressure":false' ||
    { echo "FAIL: router metrics do not report disk_pressure:false"; exit 1; }

# The killed peer's circuit breaker must open before any revival: the
# failed routes and the background prober both record transport failures
# against 127.0.0.1:$RPC1, and the topology endpoint exposes the state.
BREAKER_OPEN=0
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/api/v1/admin/topology" |
        grep -q "\"addr\":\"127.0.0.1:$RPC1\",\"breaker\":\"open\""; then
        BREAKER_OPEN=1
        break
    fi
    sleep 0.2
done
[ "$BREAKER_OPEN" = 1 ] || {
    echo "FAIL: killed peer 127.0.0.1:$RPC1 never showed breaker:open on topology"
    curl -fsS "$BASE/api/v1/admin/topology" || true
    exit 1
}

# Revive the killed region server: the prober's half-open trial must
# readmit it and flip the breaker back to closed.
"$BIN" -role=region -dir "$WORK/region1" -rpc-addr "127.0.0.1:$RPC1" \
    -node-id 1 >>"$WORK/region1.log" 2>&1 &
PIDS+=($!)
disown $!
BREAKER_CLOSED=0
for _ in $(seq 1 75); do
    if curl -fsS "$BASE/api/v1/admin/topology" |
        grep -q "\"addr\":\"127.0.0.1:$RPC1\",\"breaker\":\"closed\""; then
        BREAKER_CLOSED=1
        break
    fi
    sleep 0.2
done
[ "$BREAKER_CLOSED" = 1 ] || {
    echo "FAIL: revived peer 127.0.0.1:$RPC1 breaker never closed"
    curl -fsS "$BASE/api/v1/admin/topology" || true
    exit 1
}

TOTAL=$(sql "SELECT fid FROM p" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ "$TOTAL" = "$((ROWS + 10))" ] || {
    echo "FAIL: after reviving the region server, scan saw $TOTAL rows, want $((ROWS + 10))"
    exit 1
}

# Standalone role: healthy, no disk pressure, and an on-demand scrub
# pass over the store succeeds through the admin API.
SA_PORT=$((HTTP_PORT + 1))
"$BIN" -dir "$WORK/standalone" -addr "127.0.0.1:$SA_PORT" \
    >"$WORK/standalone.log" 2>&1 &
PIDS+=($!)
disown $!
SA="http://127.0.0.1:$SA_PORT"
for _ in $(seq 1 50); do
    if curl -fsS "$SA/api/v1/health" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
curl -fsS "$SA/api/v1/health" | grep -q '"status":"ok"' ||
    { echo "FAIL: standalone health"; exit 1; }
curl -fsS "$SA/api/v1/metrics" | grep -q '"disk_pressure":false' ||
    { echo "FAIL: standalone metrics do not report disk_pressure:false"; exit 1; }
SCRUB=$(curl -fsS -X POST "$SA/api/v1/admin/scrub/run")
if echo "$SCRUB" | grep -q '"error"' || ! echo "$SCRUB" | grep -q '"runs":[1-9]'; then
    echo "FAIL: on-demand scrub via admin/scrub/run: $SCRUB"
    exit 1
fi

echo "PASS: 3-process cluster served $((ROWS + 10)) acknowledged writes across a region-server kill; breaker opened and re-closed; router and standalone healthy without disk pressure; standalone scrub ran"
