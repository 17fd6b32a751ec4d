#!/usr/bin/env bash
# End-to-end smoke test of cmd/sramserverd: build, serve, submit a small
# readcurrent G-S job, watch live progress over both the status JSON and
# the SSE event stream (heartbeats, monotonic progress, terminal event),
# check the result against the seed-pinned bracket, fetch the
# statistical run-report and span trace, check determinism across
# submissions, exercise the SIGQUIT flight-recorder dump, then SIGTERM
# and require a clean drain that flushes the JSONL event log. Needs
# curl + jq. Used by CI (see .github/workflows/ci.yml) and runnable
# locally: scripts/server_smoke.sh
set -euo pipefail

ADDR="localhost:${SMOKE_PORT:-18931}"
WORK="$(mktemp -d)"
BIN="$WORK/sramserverd"
JOBSPEC='{"workload":"readcurrent","method":"g-s","seed":1,"k":500,"n":100000}'
# Seed-pinned expectation: readcurrent with these options lands at
# Pf ≈ 2.6e-6 (golden MC agrees); the bracket is generous, the exact
# value is pinned by the determinism check below instead.
PF_LO=5e-7
PF_HI=1e-5

fail() { echo "server_smoke: FAIL: $*" >&2; exit 1; }

# On exit, stop a server still running; a passing run removes $WORK, a
# failing one keeps it for inspection and prints its path.
SERVER_PID=
cleanup() {
  local rc=$?
  [ -z "$SERVER_PID" ] || kill "$SERVER_PID" 2>/dev/null || true
  if [ "$rc" -eq 0 ]; then
    rm -rf "$WORK"
  else
    echo "server_smoke: work directory kept: $WORK" >&2
  fi
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/sramserverd
# The job runs about half a second on a 2-vCPU host, so the heartbeat
# period must be well under that for the stream to carry one.
"$BIN" -addr "$ADDR" -drain-timeout 30s \
  -telemetry "$WORK/events.jsonl" -trace "$WORK/trace.json" \
  -flight-dir "$WORK/flight" -sse-heartbeat 100ms &
SERVER_PID=$!

for _ in $(seq 1 100); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$ADDR/healthz" >/dev/null || fail "server never came up"

[ "$(curl -fsS "http://$ADDR/v1/workloads" | jq length)" -eq 5 ] || fail "workload registry"
[ "$(curl -fsS "http://$ADDR/v1/methods" | jq length)" -eq 7 ] || fail "method registry"

submit() {
  curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$JOBSPEC" | jq -r .id
}

JOB=$(submit)
[ -n "$JOB" ] && [ "$JOB" != null ] || fail "submission returned no id"

# Attach to the job's live SSE stream while it runs. The stream must
# self-terminate on the job.done event, so this curl exits on its own
# once the job finishes (the max-time is a hang guard, not the exit
# mechanism).
SSE="$WORK/stream.sse"
curl -fsS -N --max-time 120 "http://$ADDR/v1/jobs/$JOB/events" >"$SSE" &
SSE_PID=$!

# Poll to completion, recording the live sims counter on the way; the
# counter must never move backwards.
LAST_SIMS=0
STATE=queued
for _ in $(seq 1 600); do
  SNAP=$(curl -fsS "http://$ADDR/v1/jobs/$JOB")
  STATE=$(jq -r .state <<<"$SNAP")
  SIMS=$(jq -r .sims <<<"$SNAP")
  [ "$SIMS" -ge "$LAST_SIMS" ] || fail "sims went backwards: $LAST_SIMS -> $SIMS"
  LAST_SIMS=$SIMS
  [ "$STATE" = done ] || [ "$STATE" = failed ] || [ "$STATE" = cancelled ] && break
  sleep 0.1
done
[ "$STATE" = done ] || fail "job ended in state $STATE: $(jq -c . <<<"$SNAP")"
[ "$LAST_SIMS" -gt 0 ] || fail "no simulations recorded"

PF=$(jq -r .result.pf <<<"$SNAP")
python3 - "$PF" "$PF_LO" "$PF_HI" <<'EOF' || fail "Pf $PF outside [$PF_LO, $PF_HI]"
import sys
pf, lo, hi = map(float, sys.argv[1:4])
sys.exit(0 if lo <= pf <= hi else 1)
EOF
echo "server_smoke: job $JOB done, Pf=$PF sims=$LAST_SIMS"

# The SSE stream must have self-terminated on job.done (curl exits 0;
# a 28 here means the stream hung past max-time).
wait "$SSE_PID" || fail "SSE stream did not terminate on job.done (curl rc=$?)"
grep -q '^: hb' "$SSE" || fail "SSE stream carried no heartbeats"
grep -q '^event: progress$' "$SSE" || fail "SSE stream carried no progress event"
[ "$(tail -n 5 "$SSE" | grep -c '^event: job.done$')" -eq 1 ] \
  || fail "SSE stream did not end with job.done"
# Progress events must count monotonically upward within each pipeline
# stage (n resets when stage1's Gibbs updates hand off to stage2's
# samples) and quote a finite, non-negative ETA from the live
# throughput estimator.
python3 - "$SSE" <<'EOF' || fail "SSE progress events malformed"
import json, math, sys
last_n, seen = {}, 0
event = None
for line in open(sys.argv[1]):
    line = line.strip()
    if line.startswith("event: "):
        event = line[len("event: "):]
    elif line.startswith("data: ") and event == "progress":
        ev = json.loads(line[len("data: "):])
        stage, n, eta = ev["stage"], ev["n"], ev["eta_seconds"]
        assert n >= last_n.get(stage, -1), \
            f"{stage} progress n went backwards: {last_n[stage]} -> {n}"
        assert math.isfinite(eta) and eta >= 0, f"bad eta_seconds: {eta}"
        last_n[stage], seen = n, seen + 1
assert seen >= 1, "no progress payloads parsed"
EOF
echo "server_smoke: SSE stream OK ($(grep -c '^event: ' "$SSE") events)"

# The global firehose serves the same events tagged with the job id.
GLOBAL=$(curl -fsS -N --max-time 2 "http://$ADDR/v1/events?after=-1" 2>/dev/null || true)
grep -q '"job":' <<<"$GLOBAL" || fail "global SSE stream missing job-tagged events"

# The statistical run-report is served once the job is done, with the
# chain-health and weight-health fields populated for a Gibbs method.
REPORT=$(curl -fsS "http://$ADDR/v1/jobs/$JOB/report")
[ "$(jq -r .method <<<"$REPORT")" = g-s ] || fail "report method: $(jq -c . <<<"$REPORT")"
jq -e '.rhat | type == "number"' <<<"$REPORT" >/dev/null \
  || fail "report rhat missing/non-numeric: $(jq -c .rhat <<<"$REPORT")"
jq -e '.weight_ess > 0' <<<"$REPORT" >/dev/null \
  || fail "report weight_ess not positive: $(jq -c .weight_ess <<<"$REPORT")"
jq -e '.total_sims > 0' <<<"$REPORT" >/dev/null || fail "report total_sims"
echo "server_smoke: report OK (rhat=$(jq -r .rhat <<<"$REPORT") weight_ess=$(jq -r .weight_ess <<<"$REPORT"))"

# The per-job span trace is a Chrome trace-event file with the pipeline
# span taxonomy.
TRACE=$(curl -fsS "http://$ADDR/v1/jobs/$JOB/trace")
jq -e '.traceEvents | map(.name) | (index("estimate") != null) and (index("stage2") != null)' \
  <<<"$TRACE" >/dev/null || fail "job trace missing pipeline spans"

# Per-job and global telemetry are scrapeable.
curl -fsS "http://$ADDR/v1/jobs/$JOB/metrics" | grep -q repro_mc_samples_total \
  || fail "per-job metrics missing"
curl -fsS "http://$ADDR/metrics" | grep -q 'repro_jobs_completed_total 1' \
  || fail "global jobs metrics missing"

# Determinism: an identical submission must reproduce Pf bit-for-bit.
JOB2=$(submit)
for _ in $(seq 1 600); do
  SNAP2=$(curl -fsS "http://$ADDR/v1/jobs/$JOB2")
  [ "$(jq -r .state <<<"$SNAP2")" = done ] && break
  sleep 0.1
done
PF2=$(jq -r .result.pf <<<"$SNAP2")
[ "$PF" = "$PF2" ] || fail "same seed, different Pf: $PF vs $PF2"

# SIGQUIT dumps the flight recorder without stopping the server.
kill -QUIT "$SERVER_PID"
for _ in $(seq 1 50); do
  ls "$WORK"/flight/server-sigquit.jsonl >/dev/null 2>&1 && break
  sleep 0.1
done
ls "$WORK"/flight/server-sigquit.jsonl >/dev/null 2>&1 \
  || fail "SIGQUIT produced no flight dump in $WORK/flight"
jq -es 'length > 0' "$WORK"/flight/server-sigquit.jsonl >/dev/null \
  || fail "flight dump has unparseable lines"
curl -fsS "http://$ADDR/healthz" >/dev/null || fail "server died on SIGQUIT"
echo "server_smoke: SIGQUIT flight dump OK"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$SERVER_PID"
RC=0
wait "$SERVER_PID" || RC=$?
[ "$RC" -eq 0 ] || fail "server exited $RC on SIGTERM"
SERVER_PID=

# The drain must have flushed the JSONL event log and written the span
# trace: every event line parses, and job lifecycle events are present.
[ -s "$WORK/events.jsonl" ] || fail "event log empty after drain"
jq -es 'length > 0' "$WORK/events.jsonl" >/dev/null \
  || fail "event log has unparseable lines (unflushed partial write?)"
grep -q '"event":"job.done"' "$WORK/events.jsonl" || fail "job.done event not flushed"
# The log is the server-global stream: every pipeline line names its
# job, and seq numbers the lines 0..n-1 in file order.
jq -es '[.[] | select(.event == "progress" or .event == "run.done")]
  | length > 0 and all(.job | type == "string")' "$WORK/events.jsonl" >/dev/null \
  || fail "event log has progress/run.done lines without a job field"
jq -es '[.[].seq] == [range(length)]' "$WORK/events.jsonl" >/dev/null \
  || fail "event log seq does not run 0..n-1 in file order"
jq -e '.traceEvents | length > 0' "$WORK/trace.json" >/dev/null \
  || fail "trace file empty after drain"
echo "server_smoke: drain flushed $(wc -l <"$WORK/events.jsonl") events + trace"
echo "server_smoke: PASS"
