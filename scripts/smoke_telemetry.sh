#!/bin/sh
# smoke_telemetry.sh boots a real xtalkd, submits one small campaign, and
# asserts the telemetry endpoints answer on the live daemon: /metrics must
# serve a non-empty Prometheus exposition with no series of the removed
# execute engine, no degraded-execute counter, no in-field drift-alert or
# baseline series and no in-field workload cycle counter, /debug/events a
# non-empty event array, /debug/trace/{job} the job's spans, and /alerts
# no degraded_execute_ratio objective; a spec
# naming the execute engine gets a 400 there and on the coordinator. It then
# boots a live 2-worker fleet (coordinator + two heartbeating workers) and
# asserts the federation surface: /fleet/status sees both workers scraped,
# neither worker recorded a refused heartbeat, GET /v1/fleet/workers answers
# 405 (the registry is read from /fleet/status), /alerts serves the SLO
# alert document, and the coordinator's /metrics carries worker-labeled
# xtalkd_fleet_* families. Last, it submits one spec to both
# the standalone node and the coordinator, watches both jobs to the end, and
# asserts the two /result bodies are byte-identical and the coordinator's
# /debug/trace/{job} holds the job's, the dispatch's and the workers' spans.
# Run by CI after the unit tests to catch wiring regressions a package test
# cannot (route conflicts, handler registration, daemon startup).
#
# Usage: scripts/smoke_telemetry.sh [port]
set -eu

port=${1:-18095}
base="http://127.0.0.1:$port"
cd "$(dirname "$0")/.."

# The daemon binary lives in the run's own temporary directory, which the
# EXIT trap removes, so runs leave nothing behind and never share a binary.
pids=""
tmp=$(mktemp -d)
trap 'kill $pids 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM
xtalkd="$tmp/xtalkd"
go build -o "$xtalkd" ./cmd/xtalkd
"$xtalkd" -addr "127.0.0.1:$port" &
pid=$!
pids="$pid"

# Wait for the daemon to accept connections.
i=0
until curl -fsS "$base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 50 ] || { echo "xtalkd did not come up on $base" >&2; exit 1; }
    sleep 0.1
done

job=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"bus":"addr","size":60,"seed":1,"target_only":true}' \
    "$base/v1/campaigns" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$job" ] || { echo "campaign submission returned no job id" >&2; exit 1; }

# Stream progress until the job reaches a terminal state.
curl -fsS "$base/v1/campaigns/$job/watch" >/dev/null

metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -q '^# TYPE xtalkd_jobs_submitted_total counter$' ||
    { echo "metrics exposition missing typed job counter:"; echo "$metrics"; exit 1; } >&2
echo "$metrics" | grep -q '^xtalkd_sim_defect_seconds_bucket{tier="replay",le="+Inf"} ' ||
    { echo "metrics exposition missing per-tier latency histogram:"; echo "$metrics"; exit 1; } >&2
if echo "$metrics" | grep -q 'tier="execute"\|xtalkd_engine_executes_total'; then
    echo "metrics exposition still serves the removed execute engine's series:"; echo "$metrics"; exit 1
fi >&2
# A golden run that errs is refused when the runner is built, so no run
# degrades to full execution and nothing counts one.
if echo "$metrics" | grep -q 'xtalkd_engine_degraded_executes_total'; then
    echo "metrics exposition still serves the removed degraded-execute counter:"; echo "$metrics"; exit 1
fi >&2
# In-field runs raise no alert of their own: the burn-rate objectives are
# the only alert source, so nothing counts drift alerts or holds baselines.
if echo "$metrics" | grep -q 'xtalkd_infield_drift_alerts_total\|xtalkd_infield_baselines'; then
    echo "metrics exposition still serves the removed in-field drift series:"; echo "$metrics"; exit 1
fi >&2
# No workload runs between in-field slices, so nothing counts its cycles.
if echo "$metrics" | grep -q 'xtalkd_infield_workload_cycles_total'; then
    echo "metrics exposition still serves the removed workload cycle counter:"; echo "$metrics"; exit 1
fi >&2

# The batch engine is the only one a job runs: naming another is a 400.
refuse_execute() {
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
        -d '{"bus":"addr","engine":"execute"}' "$1/v1/campaigns")
    [ "$code" = 400 ] ||
        { echo "$2 answered $code to the execute engine, want 400" >&2; exit 1; }
}
refuse_execute "$base" "standalone node"

curl -fsS "$base/debug/events" | grep -q '"type": *"job.submit"' ||
    { echo "flight recorder has no job.submit event" >&2; exit 1; }

curl -fsS "$base/debug/trace/$job" | grep -q '"name": *"job.run"' ||
    { echo "trace for $job has no job.run span" >&2; exit 1; }

echo "telemetry smoke ok: $(echo "$metrics" | grep -c '^# TYPE') families," \
    "job $job traced and recorded" >&2

# The standalone node also serves the SLO alert document, without the
# removed degraded_execute_ratio objective.
alerts=$(curl -fsS "$base/alerts")
echo "$alerts" | grep -q '"summary"' ||
    { echo "standalone /alerts serves no summary" >&2; exit 1; }
if echo "$alerts" | grep -q 'degraded_execute_ratio'; then
    echo "standalone /alerts still lists the removed degraded_execute_ratio objective:"; echo "$alerts"; exit 1
fi >&2

# --- live 2-worker fleet: federation, fleet status, alerts ---
cport=$((port + 1))
w1port=$((port + 2))
w2port=$((port + 3))
cbase="http://127.0.0.1:$cport"

"$xtalkd" -addr "127.0.0.1:$cport" -role coordinator &
pids="$pids $!"
for wport in "$w1port" "$w2port"; do
    "$xtalkd" -addr "127.0.0.1:$wport" -role worker \
        -coordinator "$cbase" -advertise "http://127.0.0.1:$wport" \
        -heartbeat 200ms &
    pids="$pids $!"
done

# Wait until the coordinator has scraped both workers (each heartbeat
# carries the worker's metrics exposition).
i=0
until curl -fsS "$cbase/fleet/status" 2>/dev/null | grep -c '"scraped": *true' | grep -qx 2; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || {
        echo "coordinator never scraped both workers:" >&2
        curl -fsS "$cbase/fleet/status" >&2 || true
        exit 1
    }
    sleep 0.1
done

status=$(curl -fsS "$cbase/fleet/status")
echo "$status" | grep -q '"workers_alive": *2' ||
    { echo "fleet status does not report 2 alive workers:"; echo "$status"; exit 1; } >&2

# A registration is answered 200 with no body; a worker records any other
# answer as a heartbeat.refused event.
for wport in "$w1port" "$w2port"; do
    events=$(curl -fsS "http://127.0.0.1:$wport/debug/events")
    if echo "$events" | grep -q '"type": *"heartbeat.refused"'; then
        echo "worker on port $wport recorded a refused heartbeat:"; echo "$events"; exit 1
    fi >&2
done

code=$(curl -s -o /dev/null -w '%{http_code}' "$cbase/v1/fleet/workers")
[ "$code" = 405 ] ||
    { echo "GET /v1/fleet/workers answered $code, want 405" >&2; exit 1; }

refuse_execute "$cbase" "coordinator"

curl -fsS "$cbase/alerts" | grep -q '"shard_roundtrip"' ||
    { echo "coordinator /alerts lacks the shard_roundtrip objective" >&2; exit 1; }

fleet_metrics=$(curl -fsS "$cbase/metrics")
echo "$fleet_metrics" | grep -q '^xtalkd_fleet_workers_busy{worker="http://127.0.0.1:'"$w1port"'"} ' ||
    { echo "federated metrics missing worker-labeled fleet family:"; echo "$fleet_metrics"; exit 1; } >&2
echo "$fleet_metrics" | grep -q '^# TYPE xtalkd_fleet_shards_dispatched_total counter$' ||
    { echo "federated metrics missing coordinator family:"; echo "$fleet_metrics"; exit 1; } >&2

echo "fleet smoke ok: 2 workers federated," \
    "$(echo "$fleet_metrics" | grep -c '^# TYPE') fleet families" >&2

# --- the coordinator's job API: one spec on both roles, same bytes ---
spec='{"bus":"addr","size":60,"seed":4,"target_only":true}'
for node in standalone coordinator; do
    url=$base
    [ "$node" = coordinator ] && url=$cbase
    id=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$spec" \
        "$url/v1/campaigns" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
    [ -n "$id" ] || { echo "$node job submission returned no job id" >&2; exit 1; }
    curl -fsS "$url/v1/campaigns/$id/watch" >/dev/null
    curl -fsS "$url/v1/campaigns/$id/result" -o "$tmp/$node.json"
done
cmp "$tmp/standalone.json" "$tmp/coordinator.json" ||
    { echo "coordinator job result differs from the standalone node's" >&2; exit 1; }
trace=$(curl -fsS "$cbase/debug/trace/$id")
for span in job.run fleet.campaign worker.shard; do
    echo "$trace" | grep -q '"name": *"'"$span"'"' ||
        { echo "coordinator trace of $id has no $span span:"; echo "$trace"; exit 1; } >&2
done

echo "coordinator job smoke ok: $id byte-identical to the standalone node," \
    "$(echo "$trace" | grep -c '"name"') spans traced" >&2
