#!/usr/bin/env bash
# Daemon drain smoke test (run by CI and `make smoke-serve`).
#
# A pdnserve daemon is started with a state directory and warmed with an
# extract-only job, so the operator cache holds the board's reduced network.
# A long sweep job is then submitted — it hits the cache, so its running
# phase is pure sweep — and the daemon is SIGTERMed mid-sweep with a short
# drain grace. The contract under test: the daemon drains instead of dying
# (exit 0), the interrupted job ends "snapshotted" with a resumable snapshot
# on disk, and a restarted daemon resumes that snapshot to a clean "done",
# restoring completed points instead of recomputing them. An extract-only
# job queued behind the sweep (one worker) is flushed by the drain when the
# sweep still holds the worker at SIGTERM; the restarted daemon's startup
# recovery must then resubmit it from the journal under its original id and
# finish it. No queue manifest may exist either way.
#
# A second leg covers the crash path: the daemon is killed with SIGKILL
# mid-sweep (no drain, no flush) and restarted over the same state directory.
# Startup recovery must resubmit the job under its original id with no
# operator action, and its touchstone must be byte-identical to an
# uninterrupted run of the same sweep.
#
# A third leg covers degraded durability: a daemon started with a bounded
# -fault-schedule (journal appends fail N times) must keep serving — the job
# completes with "durable":false and readyz says "degraded" — and once the
# schedule exhausts, the background probe must re-arm durability on its own:
# readyz returns to "ready" and the next job is "durable":true.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

addr=127.0.0.1:8873
base="http://$addr"
state="$tmp/state"

go build -o "$tmp/pdnserve" ./cmd/pdnserve

# A small mesh reduced onto many retained nodes: extraction is seconds, and
# the dense 402-node sweep is slow enough per point to catch a kill mid-way.
board='{"name":"smoke plane","shape":{"type":"rect","w_mm":50,"h_mm":40},
"plane_sep_mm":0.4,"eps_r":4.5,"sheet_res_ohm_sq":0.0006,
"mesh_nx":32,"mesh_ny":24,"extra_nodes":400,
"ports":[{"name":"U1","x_mm":40,"y_mm":30},{"name":"VRM","x_mm":5,"y_mm":5}]}'
sweep='{"fmin_hz":1e8,"fmax_hz":1e10,"nf":240'

start_daemon() {
  "$tmp/pdnserve" -addr "$addr" -state-dir "$state" -workers 1 \
    -shard-points 4 -drain-grace 1s 2>> "$tmp/serve.err" &
  pid=$!
  for _ in $(seq 1 100); do
    if curl -sf "$base/healthz" > /dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "smoke-serve: daemon never became healthy"; cat "$tmp/serve.err"; exit 1
}

submit() { # submit BODY → job id on stdout
  local resp id
  resp=$(curl -sf -X POST "$base/jobs" -d "$1")
  id=$(echo "$resp" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  [ -n "$id" ] || { echo "smoke-serve: submit failed: $resp" >&2; exit 1; }
  echo "$id"
}

job_state() { curl -sf "$base/jobs/$1" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p'; }

wait_state() { # wait_state ID WANT TRIES
  local st
  for _ in $(seq 1 "$3"); do
    st=$(job_state "$1")
    [ "$st" = "$2" ] && return 0
    case "$st" in failed|cancelled|partial|snapshotted|flushed)
      echo "smoke-serve: job $1 ended $st waiting for $2" >&2
      curl -sf "$base/jobs/$1" >&2 || true
      exit 1 ;;
    esac
    sleep 0.1
  done
  echo "smoke-serve: job $1 never reached $2 (last: $st)" >&2; exit 1
}

echo "smoke-serve: starting daemon"
start_daemon
curl -sf "$base/readyz" > /dev/null || { echo "smoke-serve: not ready"; exit 1; }

echo "smoke-serve: warming the operator cache (extract-only job)"
warm=$(submit "{\"board\":$board,\"deadline_ms\":600000}")
wait_state "$warm" done 1200

echo "smoke-serve: submitting the sweep job (served from cache)"
id=$(submit "{\"board\":$board,\"sweep\":$sweep},\"deadline_ms\":600000}")
wait_state "$id" running 600
# The cache lookup happens a beat after the job flips to running.
hit=0
for _ in $(seq 1 20); do
  if curl -sf "$base/jobs/$id" | grep -q '"cache_hit":true'; then hit=1; break; fi
  sleep 0.1
done
[ "$hit" = 1 ] || { echo "smoke-serve: sweep job missed the warmed cache"; exit 1; }
# Queued behind the sweep's shards on the single worker: the drain flushes it
# unless the sweep finished before SIGTERM and let it run.
fid=$(submit "{\"board\":$board,\"deadline_ms\":600000}")
sleep 1.5

echo "smoke-serve: SIGTERM mid-sweep (drain grace 1s)"
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || {
  echo "smoke-serve: drain must exit 0, got $status"; cat "$tmp/serve.err"; exit 1; }
flushed=0
grep -q '"flushed":1' "$tmp/serve.err" && flushed=1
[ ! -e "$state/queue.manifest" ] || {
  echo "smoke-serve: the drain wrote $state/queue.manifest; the journal is the only recovery source"; exit 1; }

snap="$state/$id.sweep.ckpt"
if [ -s "$snap" ]; then
  echo "smoke-serve: restarting and resuming from $snap"
  start_daemon
  rid=$(submit "{\"board\":$board,\"sweep\":$sweep,\"resume_from\":\"$snap\"},\"deadline_ms\":600000}")
  for _ in $(seq 1 1200); do
    st=$(job_state "$rid")
    [ "$st" = done ] && break
    case "$st" in failed|cancelled|partial|snapshotted|flushed)
      echo "smoke-serve: resumed job ended $st"; curl -sf "$base/jobs/$rid"; exit 1 ;;
    esac
    sleep 0.1
  done
  [ "$st" = done ] || { echo "smoke-serve: resumed job never finished (last: $st)"; exit 1; }
  body=$(curl -sf "$base/jobs/$rid")
  echo "$body" | grep -q '"restored":[1-9]' || {
    echo "smoke-serve: resumed job restored no points: $body"; exit 1; }
else
  # The sweep outpaced the kill on a fast machine: the drain finished the
  # job cleanly and removed its interim snapshot — a correct drain, but the
  # snapshot-resume leg cannot run. The crash leg below still does.
  grep -q '"finished":1' "$tmp/serve.err" || {
    echo "smoke-serve: no snapshot and no finished job after drain"; cat "$tmp/serve.err"; exit 1; }
  echo "smoke-serve: sweep finished before the kill landed (snapshot-resume leg skipped)"
  start_daemon
fi

if [ "$flushed" = 1 ]; then
  echo "smoke-serve: startup recovery must resubmit flushed job $fid from the journal"
  grep -q "recovery: resubmitted job $fid" "$tmp/serve.err" || {
    echo "smoke-serve: restart did not resubmit flushed job $fid"; cat "$tmp/serve.err"; exit 1; }
  wait_state "$fid" done 1200
else
  # The sweep finished before SIGTERM, so job $fid ran instead of being
  # flushed and there is nothing for recovery to resubmit.
  echo "smoke-serve: job $fid ran before the drain (flushed-job recovery leg skipped)"
fi

echo "smoke-serve: uninterrupted reference sweep for the crash leg"
ksweep='{"fmin_hz":1e8,"fmax_hz":1e10,"nf":120}'
ref=$(submit "{\"board\":$board,\"sweep\":$ksweep,\"deadline_ms\":600000}")
wait_state "$ref" done 1200
curl -sf "$base/jobs/$ref/touchstone" > "$tmp/ref.s2p"
[ -s "$tmp/ref.s2p" ] || { echo "smoke-serve: empty reference touchstone"; exit 1; }

echo "smoke-serve: graceful drain before the crash leg"
kill -TERM "$pid"
wait "$pid" || true
pid=""

echo "smoke-serve: submitting the crash-leg sweep, then SIGKILL mid-sweep"
start_daemon
kid=$(submit "{\"board\":$board,\"sweep\":$ksweep,\"deadline_ms\":600000}")
wait_state "$kid" running 600
progressed=0
for _ in $(seq 1 600); do
  if curl -sf "$base/jobs/$kid" | grep -q '"shards_done":[1-9]'; then progressed=1; break; fi
  sleep 0.05
done
[ "$progressed" = 1 ] || { echo "smoke-serve: job $kid never completed a shard"; exit 1; }
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "smoke-serve: restarting; startup recovery must resume job $kid"
start_daemon
grep -q "recovery: resubmitted job $kid" "$tmp/serve.err" || {
  echo "smoke-serve: restart did not resubmit $kid"; cat "$tmp/serve.err"; exit 1; }
for _ in $(seq 1 1200); do
  st=$(job_state "$kid")
  [ "$st" = done ] && break
  case "$st" in failed|cancelled|partial|snapshotted|flushed)
    echo "smoke-serve: recovered job ended $st"; curl -sf "$base/jobs/$kid"; exit 1 ;;
  esac
  sleep 0.1
done
[ "$st" = done ] || { echo "smoke-serve: recovered job never finished (last: $st)"; exit 1; }
curl -sf "$base/jobs/$kid" | grep -q '"restored":[1-9]' || {
  echo "smoke-serve: recovered job restored no points"; curl -sf "$base/jobs/$kid"; exit 1; }
curl -sf "$base/jobs/$kid/touchstone" > "$tmp/rec.s2p"
cmp -s "$tmp/ref.s2p" "$tmp/rec.s2p" || {
  echo "smoke-serve: crash-recovered touchstone differs from the uninterrupted run"; exit 1; }
echo "smoke-serve: crash recovery verified bitwise against the uninterrupted run"

echo "smoke-serve: graceful drain before the degraded-durability leg"
kill -TERM "$pid"
wait "$pid" || { echo "smoke-serve: drain before degraded leg failed"; exit 1; }
pid=""

echo "smoke-serve: degraded-durability leg (bounded journal faults injected)"
state2="$tmp/state2"
# 9 failures at the default 3 storage attempts: the first job's accept
# append exhausts its retries and degrades the daemon; the 500ms re-arm
# probe burns through the rest (at most 3 per tick), so full durability is
# back within a few seconds — but not before a small job finishes. The job
# must reach its terminal state while still degraded: a re-arm restores
# durability only on jobs that are still live (their accepts are re-journaled
# by the compacting rewrite), so a terminal durable:false is sticky.
dboard='{"name":"degraded leg","shape":{"type":"rect","w_mm":50,"h_mm":40},
"plane_sep_mm":0.4,"eps_r":4.5,"sheet_res_ohm_sq":0.0006,
"mesh_nx":8,"mesh_ny":8,
"ports":[{"name":"U1","x_mm":40,"y_mm":30},{"name":"VRM","x_mm":5,"y_mm":5}]}'
"$tmp/pdnserve" -addr "$addr" -state-dir "$state2" -workers 1 \
  -rearm-probe 500ms -fault-schedule "seed=5;journal.append:eio{times=9}" \
  2>> "$tmp/serve-degraded.err" &
pid=$!
for _ in $(seq 1 100); do
  if curl -sf "$base/healthz" > /dev/null 2>&1; then break; fi
  sleep 0.1
done
grep -q "storage-fault injection active" "$tmp/serve-degraded.err" || {
  echo "smoke-serve: fault injection did not announce itself"; cat "$tmp/serve-degraded.err"; exit 1; }

did=$(submit "{\"board\":$dboard,\"deadline_ms\":600000}")
wait_state "$did" done 1200
curl -sf "$base/jobs/$did" | grep -q '"durable":false' || {
  echo "smoke-serve: job under journal faults not marked durable:false"
  curl -sf "$base/jobs/$did"; exit 1; }
curl -sf "$base/readyz" | grep -q '"status":"degraded"' || {
  echo "smoke-serve: readyz does not report degraded"; curl -sf "$base/readyz"; exit 1; }

echo "smoke-serve: waiting for the probe to re-arm durability"
rearmed=0
for _ in $(seq 1 100); do
  if curl -sf "$base/readyz" | grep -q '"status":"ready"'; then rearmed=1; break; fi
  sleep 0.1
done
[ "$rearmed" = 1 ] || {
  echo "smoke-serve: durability never re-armed after the schedule exhausted"
  curl -sf "$base/readyz"; cat "$tmp/serve-degraded.err"; exit 1; }
did2=$(submit "{\"board\":$dboard,\"deadline_ms\":600000}")
wait_state "$did2" done 1200
curl -sf "$base/jobs/$did2" | grep -q '"durable":true' || {
  echo "smoke-serve: post-re-arm job not durable:true"; curl -sf "$base/jobs/$did2"; exit 1; }
echo "smoke-serve: degraded mode served honestly and re-armed on its own"

echo "smoke-serve: final graceful drain"
kill -TERM "$pid"
wait "$pid" || { echo "smoke-serve: final drain failed"; exit 1; }
pid=""
echo "smoke-serve: drained mid-sweep with exit 0; snapshot resumed to done with restored points; flushed job recovered from the journal; degraded durability re-armed"
