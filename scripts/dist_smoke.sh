#!/usr/bin/env bash
# End-to-end smoke test of distributed serving: build sramserverd (with
# -dist), sramworkerd, sramfail and loadtest; run a single-node baseline
# job; restart with two workers and prove the distributed result is
# byte-identical; check the stitched cross-process trace and the
# /v1/cluster federation summary; kill one worker mid-job and require
# the same bytes again with a reassigned lease; then exercise the
# idempotency keys and the content-addressed result cache (a repeat
# submission must do zero new simulations); finally cross a graceful
# drain under load and require zero lost jobs. Needs curl + jq. Used by
# CI (see .github/workflows/ci.yml) and runnable locally:
# scripts/dist_smoke.sh
set -euo pipefail

ADDR="localhost:${DIST_SMOKE_PORT:-18932}"
WORK="$(mktemp -d)"
JOBSPEC='{"workload":"readcurrent","method":"g-s","seed":7,"k":500,"n":60000}'

fail() { echo "dist_smoke: FAIL: $*" >&2; exit 1; }

# On exit, stop every daemon started; a passing run removes $WORK, a
# failing one keeps it for inspection and prints its path.
PIDS=()
cleanup() {
  local rc=$?
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  if [ "$rc" -eq 0 ]; then
    rm -rf "$WORK"
  else
    echo "dist_smoke: work directory kept: $WORK" >&2
  fi
}
trap cleanup EXIT

go build -o "$WORK/sramserverd" ./cmd/sramserverd
go build -o "$WORK/sramworkerd" ./cmd/sramworkerd
go build -o "$WORK/sramfail" ./cmd/sramfail
go build -o "$WORK/loadtest" ./cmd/loadtest

start_server() { # args: extra server flags
  "$WORK/sramserverd" -addr "$ADDR" -drain-timeout 30s "$@" &
  SERVER_PID=$!
  PIDS+=("$SERVER_PID")
  for _ in $(seq 1 100); do
    curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fsS "http://$ADDR/healthz" >/dev/null || fail "server never came up"
}

stop_server() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
}

start_worker() { # args: worker id -> echoes pid (runs in $(...), so the caller records it)
  "$WORK/sramworkerd" -coordinator "http://$ADDR" -id "$1" -poll 100ms \
    >"$WORK/$1.log" 2>&1 &
  echo "$!"
}

# canonical_result strips wall-clock noise from a terminal snapshot so
# results can be compared byte-for-byte.
canonical_result() { jq -cS '.result' <<<"$1"; }

submit_wait() { # args: extra JSON fields merged into JOBSPEC
  curl -fsS -X POST "http://$ADDR/v1/jobs?wait=1" \
    -d "$(jq -c ". + $1" <<<"$JOBSPEC")"
}

# ---- Phase 1: byte-identical distributed serving + worker kill. ----
# The result cache stays OFF here so the single-node baseline really
# recomputes instead of replaying the distributed job's cached bytes.
start_server -dist -lease-ttl 2s

BASE_SNAP=$(submit_wait '{}')
[ "$(jq -r .state <<<"$BASE_SNAP")" = done ] || fail "baseline job: $(jq -c . <<<"$BASE_SNAP")"
BASELINE=$(canonical_result "$BASE_SNAP")
echo "dist_smoke: single-node baseline Pf=$(jq -r .pf <<<"$BASELINE")"

W1=$(start_worker smoke-w1)
W2=$(start_worker smoke-w2)
PIDS+=("$W1" "$W2")

DIST_SNAP=$(submit_wait '{"seed":7,"distribute":true}')
[ "$(jq -r .state <<<"$DIST_SNAP")" = done ] || fail "distributed job: $(jq -c . <<<"$DIST_SNAP")"
[ "$(jq -r .distributed <<<"$DIST_SNAP")" = true ] || fail "job not marked distributed"
[ "$(canonical_result "$DIST_SNAP")" = "$BASELINE" ] \
  || fail "distributed result differs from single-node baseline"
WORKERS=$(curl -fsS "http://$ADDR/v1/cluster" | jq -c .workers)
[ "$(jq 'map(.completed) | add' <<<"$WORKERS")" -gt 0 ] || fail "no worker completed a lease"
echo "dist_smoke: 2-worker result byte-identical ($(jq 'length' <<<"$WORKERS") workers registered)"

# The stitched trace: one Chrome trace for the distributed job, with
# the workers' spans grafted under their leases and tagged.
DIST_ID=$(jq -r .id <<<"$DIST_SNAP")
TRACE=$(curl -fsS "http://$ADDR/v1/jobs/$DIST_ID/trace")
jq -e '.traceEvents | length > 0' <<<"$TRACE" >/dev/null || fail "stitched trace is empty"
TRACE_WORKERS=$(jq -r '[.traceEvents[].args.worker // empty] | unique | join(",")' <<<"$TRACE")
[ -n "$TRACE_WORKERS" ] || fail "stitched trace has no worker-tagged spans"
echo "dist_smoke: stitched trace carries spans from [$TRACE_WORKERS]"

# Metrics federation: the cluster summary folds both workers' totals.
CLUSTER=$(curl -fsS "http://$ADDR/v1/cluster")
[ "$(jq '.workers | length' <<<"$CLUSTER")" = 2 ] || fail "cluster summary missing workers: $(jq -c . <<<"$CLUSTER")"
jq -e '.samples > 0 and .leases_completed > 0' <<<"$CLUSTER" >/dev/null \
  || fail "cluster summary has no federated throughput: $(jq -c . <<<"$CLUSTER")"
echo "dist_smoke: /v1/cluster folds $(jq -r .samples <<<"$CLUSTER") samples across the fleet"

# Kill one worker mid-job: submit asynchronously, wait until the doomed
# worker holds a lease, SIGKILL it, and require the same bytes again.
KILL_JOB=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$(jq -c '. + {distribute:true, n:200000}' <<<"$JOBSPEC")" | jq -r .id)
for _ in $(seq 1 200); do
  ACTIVE=$(curl -fsS "http://$ADDR/v1/cluster" | jq '[.workers[] | select(.id=="smoke-w1")][0].active // 0')
  [ "$ACTIVE" -gt 0 ] && break
  sleep 0.05
done
kill -9 "$W1" 2>/dev/null || true
echo "dist_smoke: killed smoke-w1 while active=$ACTIVE"

for _ in $(seq 1 1200); do
  KILL_SNAP=$(curl -fsS "http://$ADDR/v1/jobs/$KILL_JOB")
  STATE=$(jq -r .state <<<"$KILL_SNAP")
  [ "$STATE" = done ] || [ "$STATE" = failed ] && break
  sleep 0.1
done
[ "$STATE" = done ] || fail "post-kill job ended in state $STATE: $(jq -c . <<<"$KILL_SNAP")"

BIG_BASE=$(submit_wait '{"n":200000}')
[ "$(canonical_result "$KILL_SNAP")" = "$(canonical_result "$BIG_BASE")" ] \
  || fail "post-kill distributed result differs from single-node baseline"
echo "dist_smoke: worker-kill survived, result still byte-identical"

stop_server

# ---- Phase 2: idempotency keys + content-addressed result cache. ----
start_server -result-cache 64

FIRST=$(curl -fsS -D "$WORK/h1" -X POST "http://$ADDR/v1/jobs?wait=1" \
  -H 'Idempotency-Key: smoke-key-1' -d "$JOBSPEC")
[ "$(jq -r .state <<<"$FIRST")" = done ] || fail "idempotent first submit"
grep -qi '^Idempotent-Replay' "$WORK/h1" && fail "first submit must not be a replay"

REPLAY=$(curl -fsS -D "$WORK/h2" -X POST "http://$ADDR/v1/jobs" \
  -H 'Idempotency-Key: smoke-key-1' -d "$JOBSPEC")
grep -qi '^Idempotent-Replay: true' "$WORK/h2" || fail "replay header missing"
[ "$(jq -r .id <<<"$REPLAY")" = "$(jq -r .id <<<"$FIRST")" ] || fail "replay returned a different job"

# Reusing the key with a different body must be a 409 problem document.
CONFLICT_CODE=$(curl -sS -o "$WORK/conflict.json" -w '%{http_code}' \
  -X POST "http://$ADDR/v1/jobs" -H 'Idempotency-Key: smoke-key-1' \
  -d "$(jq -c '.seed=99' <<<"$JOBSPEC")")
[ "$CONFLICT_CODE" = 409 ] || fail "idempotency conflict returned $CONFLICT_CODE"
jq -e '.type == "urn:repro:problem:idempotency-conflict"' "$WORK/conflict.json" >/dev/null \
  || fail "conflict is not a problem+json document: $(cat "$WORK/conflict.json")"

# A fresh submission of the identical request hits the result cache:
# terminal at submit time, marked cached, zero new simulations.
BEFORE=$(curl -fsS "http://$ADDR/metrics" | awk '/^repro_mc_samples_total/ {print $2}')
CACHED=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$JOBSPEC")
[ "$(jq -r .state <<<"$CACHED")" = done ] || fail "cache hit not terminal at submit"
[ "$(jq -r .cached <<<"$CACHED")" = true ] || fail "cache hit not marked cached"
[ "$(canonical_result "$CACHED")" = "$(canonical_result "$FIRST")" ] \
  || fail "cached result differs from the original"
AFTER=$(curl -fsS "http://$ADDR/metrics" | awk '/^repro_mc_samples_total/ {print $2}')
[ "${AFTER:-0}" = "${BEFORE:-0}" ] || fail "cache hit ran new simulations ($BEFORE -> $AFTER)"
echo "dist_smoke: idempotency + result cache OK (0 new simulations on repeat)"

# A problem document also comes back for plain validation errors.
BAD_CODE=$(curl -sS -o "$WORK/bad.json" -w '%{http_code}' \
  -X POST "http://$ADDR/v1/jobs" -d '{"workload":"readcurrent","k":-4}')
[ "$BAD_CODE" = 400 ] || fail "invalid options returned $BAD_CODE"
jq -e '.type == "urn:repro:problem:invalid-request" and (.errors | length) > 0' "$WORK/bad.json" >/dev/null \
  || fail "validation problem malformed: $(cat "$WORK/bad.json")"

# The typed client under load: every job done, none lost.
"$WORK/loadtest" -server "http://$ADDR" -jobs 20 -concurrency 4 \
  -workload readcurrent -k 200 -n 2000 || fail "loadtest lost or failed jobs"
# And the same requests again, now all served by the cache.
"$WORK/loadtest" -server "http://$ADDR" -jobs 20 -concurrency 4 \
  -workload readcurrent -k 200 -n 2000 | tee "$WORK/lt2.out" || fail "cached loadtest"
grep -q 'cached            20' "$WORK/lt2.out" || fail "repeat loadtest not fully cached"

# sramfail -remote drives the same API through the typed client.
"$WORK/sramfail" -remote "http://$ADDR" -metric readcurrent -method g-s \
  -k 200 -n 2000 -seed 3 >"$WORK/remote.out" || fail "sramfail -remote"
grep -q '^failure rate' "$WORK/remote.out" || fail "sramfail -remote printed no result"

stop_server

# ---- Phase 3: drain crossing under load. ----
# loadtest SIGTERMs the server itself after 10 completions; every job
# accepted before the signal must still finish, later submissions must
# get the typed draining problem, and nothing may be lost. loadtest
# exits non-zero if any of that fails.
start_server
"$WORK/loadtest" -server "http://$ADDR" -jobs 30 -concurrency 4 \
  -workload readcurrent -k 200 -n 20000 \
  -drain-after 10 -drain-pid "$SERVER_PID" | tee "$WORK/lt3.out" \
  || fail "drain-crossing loadtest lost or failed jobs"
wait "$SERVER_PID" || fail "server exited non-zero after drain"
grep -q 'drain crossing' "$WORK/lt3.out" || fail "loadtest did not run in drain mode"
echo "dist_smoke: drain crossing OK (zero lost jobs, clean rejections)"

echo "dist_smoke: PASS"
