#!/usr/bin/env bash
# smoke_stemsd.sh — black-box smoke test of the stemsd daemon: build it,
# start it, hit /healthz, submit one small job, watch it finish, check the
# /metrics counters moved, require a two-run job to report its short
# first run (runs_done 1, one result) while its long second run still
# replays and to end canceled on DELETE, then SIGTERM and require a clean
# (exit 0) drain. It then relaunches the daemon on the same -store directory and
# requires the same job to be answered from disk: zero runs computed, one
# cache hit. A third launch runs from a -config file with an "@every 1s"
# schedule wired to a webhook notifier (a local webhooksink receiver that
# fails the first delivery, forcing a retry), submits a server-side grid
# job with duplicate cells, and asserts the new counters — grid jobs,
# schedule fires, notifications sent — in both the JSON and Prometheus
# expositions. Between the two, five rounds kill -9 the daemon partway
# through a job on the same -store: every restart must find the store
# clean (no *.tmp debris, nothing deeper than the store's one fanout
# level), and the rounds' runs must then finish with results byte-equal
# to the same runs on a fresh store. CI runs this after the unit
# suites; it is the one check that exercises the real binary end to end
# (flags, config file, signal handling, HTTP stack, restart and crash
# durability) rather than an in-process httptest server.
#
# Needs only bash + curl + grep/sed (no jq): field extraction below works
# on the server's compact single-line JSON.
#
# Set SMOKE_OUT to a directory to keep observability artifacts (the
# Prometheus scrape and a 1-second CPU profile from /debug/pprof); CI
# uploads them so a failing or slow run can be inspected offline.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${STEMSD_ADDR:-127.0.0.1:18091}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/stemsd"
LOG="$(mktemp)"
STORE="$(mktemp -d)"
FRESH_STORE="$(mktemp -d)"
OUT="${SMOKE_OUT:-}"
[[ -n "$OUT" ]] && mkdir -p "$OUT"

SINK_ADDR="${WEBHOOKSINK_ADDR:-127.0.0.1:18092}"
SINK="$(dirname "$BIN")/webhooksink"
CFG="$(mktemp)"

cleanup() {
  [[ -n "${PID:-}" ]] && kill -9 "$PID" 2>/dev/null || true
  [[ -n "${SINK_PID:-}" ]] && kill -9 "$SINK_PID" 2>/dev/null || true
  rm -f "$LOG" "$CFG"
  rm -rf "$(dirname "$BIN")" "$STORE" "$FRESH_STORE"
}
trap cleanup EXIT

echo "== build"
go build -o "$BIN" ./cmd/stemsd
go build -o "$SINK" ./scripts/webhooksink

echo "== -version"
VERSION_OUT="$("$BIN" -version)"
echo "$VERSION_OUT"
grep -q '^stemsd ' <<<"$VERSION_OUT" || { echo "-version output malformed"; exit 1; }

echo "== start on $ADDR (store: $STORE)"
"$BIN" -addr "$ADDR" -workers 2 -queue 8 -cache 16 -store "$STORE" -pprof >"$LOG" 2>&1 &
PID=$!

# jsonfield DOC KEY — extract a scalar field from compact JSON.
jsonfield() {
  sed -n "s/.*\"$2\":\"\{0,1\}\([^,\"}]*\)\"\{0,1\}[,}].*/\1/p" <<<"$1" | head -1
}

# start_daemon DIR — launch stemsd on store DIR and wait for /healthz.
start_daemon() {
  : >"$LOG"
  "$BIN" -addr "$ADDR" -workers 2 -queue 8 -cache 16 -store "$1" >"$LOG" 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$PID" 2>/dev/null; then
      echo "daemon died during startup on $1:"; cat "$LOG"; exit 1
    fi
    sleep 0.1
  done
  echo "daemon on $1 never answered /healthz:"; cat "$LOG"; exit 1
}

# job_results SPEC — submit SPEC, require it to finish done, print its
# results array (the last field of the job status).
job_results() {
  local submit id status state=""
  submit="$(curl -fsS -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' -d "$1")"
  id="$(jsonfield "$submit" id)"
  for _ in $(seq 1 300); do
    status="$(curl -fsS "$BASE/v1/jobs/$id")"
    state="$(jsonfield "$status" state)"
    [[ "$state" == "done" || "$state" == "failed" || "$state" == "canceled" ]] && break
    sleep 0.1
  done
  [[ "$state" == "done" ]] || { echo "job $id ended in state '$state'" >&2; cat "$LOG" >&2; exit 1; }
  sed -n 's/.*"results":\(\[.*\]\)}$/\1/p' <<<"$status"
}

echo "== wait for /healthz"
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "daemon died during startup:"; cat "$LOG"; exit 1
  fi
  sleep 0.1
done
curl -fsS "$BASE/healthz"; echo

echo "== discovery endpoints"
PREDICTORS="$(curl -fsS "$BASE/v1/predictors")"
grep -q '"stems"' <<<"$PREDICTORS"
# /v1/predictors carries the full knob schema, not just names.
grep -q '"knobs"' <<<"$PREDICTORS"
grep -q '"stems.rmob_entries"' <<<"$PREDICTORS"
curl -fsS "$BASE/v1/workloads"  | grep -q '"em3d"'

echo "== submit one small job"
SUBMIT="$(curl -fsS -X POST "$BASE/v1/jobs" \
  -H 'Content-Type: application/json' \
  -d '{"predictor":"stems","workload":"em3d","accesses":30000}')"
echo "$SUBMIT"
JOB="$(jsonfield "$SUBMIT" id)"
[[ "$JOB" == j-* ]] || { echo "no job id in response"; exit 1; }

echo "== poll $JOB to completion"
STATE=""
for _ in $(seq 1 300); do
  STATUS="$(curl -fsS "$BASE/v1/jobs/$JOB")"
  STATE="$(jsonfield "$STATUS" state)"
  [[ "$STATE" == "done" || "$STATE" == "failed" || "$STATE" == "canceled" ]] && break
  sleep 0.1
done
echo "$STATUS"
[[ "$STATE" == "done" ]] || { echo "job ended in state '$STATE'"; cat "$LOG"; exit 1; }
grep -q '"covered"' <<<"$STATUS" || { echo "result document missing counters"; exit 1; }

echo "== finished job reports phase spans"
for PHASE in queue resolve simulate encode store; do
  grep -q "\"phase\":\"$PHASE\"" <<<"$STATUS" || { echo "status missing phase span '$PHASE'"; exit 1; }
done
# The simulate phase actually accumulated time for a computed run.
SIM_NANOS="$(sed -n 's/.*{"phase":"simulate","nanos":\([0-9]*\),.*/\1/p' <<<"$STATUS")"
[[ -n "$SIM_NANOS" && "$SIM_NANOS" -gt 0 ]] || { echo "simulate phase span empty: $STATUS"; exit 1; }

echo "== metrics recorded the work"
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS"
[[ "$(jsonfield "$METRICS" jobs_completed)" == "1" ]] || { echo "jobs_completed != 1"; exit 1; }
[[ "$(jsonfield "$METRICS" accesses_simulated)" == "30000" ]] || { echo "accesses_simulated != 30000"; exit 1; }
grep -q '"accesses_per_sec_1m"' <<<"$METRICS" || { echo "metrics missing windowed rate"; exit 1; }

echo "== Prometheus exposition"
PROM="$(curl -fsS "$BASE/metrics?format=prometheus")"
[[ -n "$OUT" ]] && printf '%s\n' "$PROM" >"$OUT/metrics.prom"
grep -q '^# TYPE stemsd_jobs_completed_total counter' <<<"$PROM" || { echo "exposition missing TYPE line"; exit 1; }
grep -q '^stemsd_jobs_completed_total 1$' <<<"$PROM" || { echo "exposition jobs_completed != 1"; exit 1; }
grep -q '^# TYPE stemsd_http_request_seconds histogram' <<<"$PROM" || { echo "exposition missing request histogram"; exit 1; }
grep -q 'stemsd_http_request_seconds_bucket{route="GET /v1/jobs/{id}",le="+Inf"}' <<<"$PROM" || { echo "exposition missing route histogram buckets"; exit 1; }
grep -q 'stemsd_job_phase_seconds_count{phase="simulate"}' <<<"$PROM" || { echo "exposition missing phase histogram"; exit 1; }
grep -q 'stemsd_store_write_seconds_count' <<<"$PROM" || { echo "exposition missing store write histogram"; exit 1; }

echo "== pprof CPU profile"
PROFILE_DEST="${OUT:-$(dirname "$BIN")}/cpu.pprof"
curl -fsS -o "$PROFILE_DEST" "$BASE/debug/pprof/profile?seconds=1" || { echo "pprof profile capture failed"; exit 1; }
[[ -s "$PROFILE_DEST" ]] || { echo "pprof profile empty"; exit 1; }

echo "== submit a knob-override job"
SUBMIT2="$(curl -fsS -X POST "$BASE/v1/jobs" \
  -H 'Content-Type: application/json' \
  -d '{"predictor":"stems","workload":"em3d","accesses":30000,"knobs":{"stems.rmob_entries":16384,"scientific":false}}')"
echo "$SUBMIT2"
JOB2="$(jsonfield "$SUBMIT2" id)"
[[ "$JOB2" == j-* ]] || { echo "no job id in knob-override response"; exit 1; }

echo "== poll $JOB2 to completion"
STATE2=""
for _ in $(seq 1 300); do
  STATUS2="$(curl -fsS "$BASE/v1/jobs/$JOB2")"
  STATE2="$(jsonfield "$STATUS2" state)"
  [[ "$STATE2" == "done" || "$STATE2" == "failed" || "$STATE2" == "canceled" ]] && break
  sleep 0.1
done
[[ "$STATE2" == "done" ]] || { echo "knob job ended in state '$STATE2'"; cat "$LOG"; exit 1; }
grep -q '"covered"' <<<"$STATUS2" || { echo "knob-job result missing counters"; exit 1; }
# The canonical knob map is reported back in the job spec.
grep -q '"stems.rmob_entries":16384' <<<"$STATUS2" || { echo "knobs not echoed in job status"; exit 1; }

echo "== bad knob is a structured 400"
CODE="$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/jobs" \
  -H 'Content-Type: application/json' -d '{"knobs":{"no.such.knob":1}}')"
[[ "$CODE" == "400" ]] || { echo "bad knob returned HTTP $CODE, want 400"; exit 1; }

echo "== a two-run job reports its first run while the second replays, then cancels"
PSUBMIT="$(curl -fsS -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' \
  -d '{"runs":[{"predictor":"none","workload":"em3d","accesses":5000},
               {"predictor":"stems","workload":"DB2","accesses":3000000}]}')"
PJOB="$(jsonfield "$PSUBMIT" id)"
[[ "$PJOB" == j-* ]] || { echo "no job id in two-run response"; exit 1; }
LANDED=""
for _ in $(seq 1 200); do # every 0.1 s for at most 20 s
  PSTATUS="$(curl -fsS "$BASE/v1/jobs/$PJOB")"
  PSTATE="$(jsonfield "$PSTATUS" state)"
  if [[ "$PSTATE" == "running" && "$(jsonfield "$PSTATUS" runs_done)" == "1" ]]; then
    LANDED=1
    break
  fi
  [[ "$PSTATE" == "running" || "$PSTATE" == "queued" ]] || break
  sleep 0.1
done
[[ -n "$LANDED" ]] || { echo "never saw runs_done 1 while the job ran: $PSTATUS"; exit 1; }
[[ "$(grep -o '"covered"' <<<"$PSTATUS" | wc -l)" -eq 1 ]] || { echo "running job with one run done does not report exactly one result: $PSTATUS"; exit 1; }
curl -fsS -X DELETE "$BASE/v1/jobs/$PJOB" >/dev/null
for _ in $(seq 1 100); do
  PSTATE="$(jsonfield "$(curl -fsS "$BASE/v1/jobs/$PJOB")" state)"
  [[ "$PSTATE" == "running" ]] || break
  sleep 0.1
done
[[ "$PSTATE" == "canceled" ]] || { echo "two-run job ended '$PSTATE' after DELETE, want canceled"; exit 1; }

echo "== SIGTERM drains cleanly"
kill -TERM "$PID"
EXIT=0
wait "$PID" || EXIT=$?
if [[ "$EXIT" -ne 0 ]]; then
  echo "daemon exited $EXIT after SIGTERM:"; cat "$LOG"; exit 1
fi
PID=""
grep -q "drained, exiting" "$LOG" || { echo "no clean-drain log line:"; cat "$LOG"; exit 1; }

echo "== restart on the same -store directory"
start_daemon "$STORE"
# The startup log reports what the store rebuild found and what it cost.
grep -Eq 'msg="result store".* open_ms=[0-9.]+ migrated=[0-9]+' "$LOG" || { echo "no store-open log line with open_ms and migrated:"; cat "$LOG"; exit 1; }

echo "== resubmit the first job: must be served from disk"
RESUBMIT="$(curl -fsS -X POST "$BASE/v1/jobs" \
  -H 'Content-Type: application/json' \
  -d '{"predictor":"stems","workload":"em3d","accesses":30000}')"
RJOB="$(jsonfield "$RESUBMIT" id)"
[[ "$RJOB" == j-* ]] || { echo "no job id in restart response"; exit 1; }
RSTATE=""
for _ in $(seq 1 300); do
  RSTATUS="$(curl -fsS "$BASE/v1/jobs/$RJOB")"
  RSTATE="$(jsonfield "$RSTATUS" state)"
  [[ "$RSTATE" == "done" || "$RSTATE" == "failed" || "$RSTATE" == "canceled" ]] && break
  sleep 0.1
done
[[ "$RSTATE" == "done" ]] || { echo "restart job ended in state '$RSTATE'"; cat "$LOG"; exit 1; }
grep -q '"covered"' <<<"$RSTATUS" || { echo "restart result missing counters"; exit 1; }

echo "== restart metrics: zero runs computed, one cache hit, one disk hit"
RMETRICS="$(curl -fsS "$BASE/metrics")"
echo "$RMETRICS"
[[ "$(jsonfield "$RMETRICS" runs_computed)" == "0" ]] || { echo "restarted daemon recomputed (runs_computed != 0)"; exit 1; }
[[ "$(jsonfield "$RMETRICS" cache_hits)" == "1" ]] || { echo "cache_hits != 1 after restart"; exit 1; }
RSTORE="$(grep -o '"store":{[^}]*}' <<<"$RMETRICS")"
[[ "$(jsonfield "$RSTORE" hits)" == "1" ]] || { echo "store hits != 1 after restart: $RSTORE"; exit 1; }
[[ "$(jsonfield "$RSTORE" entries)" -ge 1 ]] || { echo "store empty after restart: $RSTORE"; exit 1; }

echo "== second SIGTERM drains cleanly"
kill -TERM "$PID"
EXIT=0
wait "$PID" || EXIT=$?
if [[ "$EXIT" -ne 0 ]]; then
  echo "daemon exited $EXIT after restart SIGTERM:"; cat "$LOG"; exit 1
fi
PID=""

# kjob_runs SEED — the four short runs of a kill -9 round, at SEED.
kjob_runs() {
  local r=""
  for PW in stems/em3d sms/em3d stems/DB2 tms/DB2; do
    r+="${r:+,}{\"predictor\":\"${PW%/*}\",\"workload\":\"${PW#*/}\",\"accesses\":200000,\"seed\":$1}"
  done
  echo "$r"
}

# Each round's job is new work (its own seed), so every round computes
# and writes entries when the kill lands; the same job every round would
# leave nothing to write once one round outlived it.
echo "== kill -9 partway through a job, five rounds on the same -store"
start_daemon "$STORE"
ALL_RUNS=""
for ROUND in 1 2 3 4 5; do
  ALL_RUNS+="${ALL_RUNS:+,}$(kjob_runs "$ROUND")"
  curl -fsS -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' \
    -d "{\"runs\":[$(kjob_runs "$ROUND")]}" >/dev/null
  DELAY="$(printf '0.%02d' $((ROUND * 5)))" # staggered: 0.05 s to 0.25 s into the job
  sleep "$DELAY"
  kill -9 "$PID"
  wait "$PID" 2>/dev/null || true
  PID=""
  start_daemon "$STORE"
  echo "round $ROUND: killed ${DELAY}s into its job; restart found $(sed -n 's/.*msg="result store".* entries=\([0-9]*\).*/\1/p' "$LOG") entries"
  LEFT="$(find "$STORE" -name '*.tmp'; find "$STORE" -mindepth 2 -type d)"
  [[ -z "$LEFT" ]] || { echo "round $ROUND: store not clean after a kill -9 restart:"; echo "$LEFT"; exit 1; }
done

echo "== the rounds' runs after the kills: done, nothing dropped as corrupt, same bytes as on a fresh store"
KJOB="{\"runs\":[$ALL_RUNS]}"
KILLED="$(job_results "$KJOB")"
[[ -n "$KILLED" ]] || { echo "no results after the kill -9 rounds"; exit 1; }
KSTORE="$(grep -o '"store":{[^}]*}' <<<"$(curl -fsS "$BASE/metrics")")"
[[ "$(jsonfield "$KSTORE" corrupt_dropped)" == "0" ]] || { echo "store dropped corrupt entries: $KSTORE"; exit 1; }
kill -TERM "$PID"
wait "$PID" || { echo "daemon exited non-zero after the kill -9 rounds:"; cat "$LOG"; exit 1; }
PID=""
start_daemon "$FRESH_STORE"
FRESH="$(job_results "$KJOB")"
kill -TERM "$PID"
wait "$PID" || { echo "fresh-store daemon exited non-zero:"; cat "$LOG"; exit 1; }
PID=""
[[ "$KILLED" == "$FRESH" ]] || { echo "results after the kill -9 rounds differ from a fresh store's"; exit 1; }

echo "== start webhook sink on $SINK_ADDR (first delivery fails, forcing a retry)"
"$SINK" -addr "$SINK_ADDR" -fail-first 1 >/dev/null 2>&1 &
SINK_PID=$!
for _ in $(seq 1 100); do
  curl -fsS "http://$SINK_ADDR/stats" >/dev/null 2>&1 && break
  sleep 0.1
done

echo "== config-file daemon: schedule + webhook notifier"
cat >"$CFG" <<EOF
{
  "addr": "$ADDR",
  "workers": 2,
  "queue": 8,
  "cache": 16,
  "log_level": "debug",
  "notifiers": [
    {"name": "sink", "type": "webhook", "url": "http://$SINK_ADDR/notify",
     "attempts": 5, "backoff": "100ms"}
  ],
  "schedules": [
    {"name": "smoke", "cron": "@every 1s",
     "job": {"predictor": "stems", "workload": "em3d", "accesses": 20000},
     "notify": ["sink"]}
  ]
}
EOF
: >"$LOG"
"$BIN" -config "$CFG" >"$LOG" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "daemon died during config-file startup:"; cat "$LOG"; exit 1
  fi
  sleep 0.1
done

echo "== schedule is registered and visible over the API"
SCHEDULES="$(curl -fsS "$BASE/v1/schedules")"
echo "$SCHEDULES"
grep -q '"name":"smoke"' <<<"$SCHEDULES" || { echo "config schedule not registered"; exit 1; }

echo "== submit a grid job with duplicate cells"
GRID_SUBMIT="$(curl -fsS -X POST "$BASE/v1/jobs" \
  -H 'Content-Type: application/json' \
  -d '{"grid":{"base":{"predictor":"stems","workload":"em3d","accesses":30000},
       "axes":[{"knob":"stems.lookahead","values":[4,4,8]}]}}')"
echo "$GRID_SUBMIT"
GJOB="$(jsonfield "$GRID_SUBMIT" id)"
[[ "$GJOB" == j-* ]] || { echo "no job id in grid response"; exit 1; }
# The grid expanded server-side into its 3 cells.
grep -q '"runs_total":3' <<<"$GRID_SUBMIT" || { echo "grid not expanded to 3 runs: $GRID_SUBMIT"; exit 1; }

echo "== poll $GJOB to completion"
GSTATE=""
for _ in $(seq 1 300); do
  GSTATUS="$(curl -fsS "$BASE/v1/jobs/$GJOB")"
  GSTATE="$(jsonfield "$GSTATUS" state)"
  [[ "$GSTATE" == "done" || "$GSTATE" == "failed" || "$GSTATE" == "canceled" ]] && break
  sleep 0.1
done
[[ "$GSTATE" == "done" ]] || { echo "grid job ended in state '$GSTATE'"; cat "$LOG"; exit 1; }
# 3 cells, but the duplicate was a cache hit: only 2 unique cells computed.
grep -q '"runs_done":3' <<<"$GSTATUS" || { echo "grid runs_done != 3: $GSTATUS"; exit 1; }
grep -q '"cache_hits":1' <<<"$GSTATUS" || { echo "grid duplicate cell not deduped (cache_hits != 1): $GSTATUS"; exit 1; }

echo "== wait for a schedule fire and its webhook delivery"
DELIVERED=""
for _ in $(seq 1 300); do
  SINK_STATS="$(curl -fsS "http://$SINK_ADDR/stats")"
  DELIVERED="$(jsonfield "$SINK_STATS" delivered)"
  [[ -n "$DELIVERED" && "$DELIVERED" -ge 1 ]] && break
  sleep 0.1
done
echo "$SINK_STATS"
[[ "$DELIVERED" -ge 1 ]] || { echo "no notification delivered to sink: $SINK_STATS"; cat "$LOG"; exit 1; }
# -fail-first 1 made the first attempt a 500, so delivery took a retry.
[[ "$(jsonfield "$SINK_STATS" requests)" -ge 2 ]] || { echo "sink saw no retry: $SINK_STATS"; exit 1; }

echo "== grid/schedule/notification counters in the JSON document"
CMETRICS="$(curl -fsS "$BASE/metrics")"
echo "$CMETRICS"
[[ "$(jsonfield "$CMETRICS" grid_jobs)" == "1" ]] || { echo "grid_jobs != 1"; exit 1; }
[[ "$(jsonfield "$CMETRICS" schedules)" == "1" ]] || { echo "sched.schedules != 1"; exit 1; }
[[ "$(jsonfield "$CMETRICS" schedule_fires)" -ge 1 ]] || { echo "schedule_fires < 1"; exit 1; }
[[ "$(jsonfield "$CMETRICS" notifications_sent)" -ge 1 ]] || { echo "notifications_sent < 1"; exit 1; }
[[ "$(jsonfield "$CMETRICS" notification_retries)" -ge 1 ]] || { echo "notification_retries < 1"; exit 1; }

echo "== and in the Prometheus exposition"
CPROM="$(curl -fsS "$BASE/metrics?format=prometheus")"
[[ -n "$OUT" ]] && printf '%s\n' "$CPROM" >"$OUT/metrics-sched.prom"
grep -q '^stemsd_grid_jobs_total 1$' <<<"$CPROM" || { echo "exposition grid_jobs != 1"; exit 1; }
grep -q '^stemsd_schedules 1$' <<<"$CPROM" || { echo "exposition schedules gauge != 1"; exit 1; }
grep -Eq '^stemsd_schedule_fires_total [1-9]' <<<"$CPROM" || { echo "exposition missing schedule fires"; exit 1; }
grep -Eq '^stemsd_notifications_sent_total\{notifier="sink"\} [1-9]' <<<"$CPROM" || { echo "exposition missing notifications sent"; exit 1; }
grep -q '^stemsd_build_info{' <<<"$CPROM" || { echo "exposition missing build info gauge"; exit 1; }

echo "== third SIGTERM drains cleanly (scheduler stops, notifications flush)"
kill -TERM "$PID"
EXIT=0
wait "$PID" || EXIT=$?
if [[ "$EXIT" -ne 0 ]]; then
  echo "daemon exited $EXIT after config-file SIGTERM:"; cat "$LOG"; exit 1
fi
PID=""
grep -q "drained, exiting" "$LOG" || { echo "no clean-drain log line:"; cat "$LOG"; exit 1; }

echo "== smoke OK"
