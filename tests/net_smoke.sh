#!/usr/bin/env bash
# Network serving smoke test (wired as the `net_smoke` ctest):
#   1. train a tiny snapshot, start `hosr_serve --port=0` (ephemeral port,
#      written to --port_file), replay 1.5k requests from a separate
#      hosr_loadgen process with --verify_snapshot/--verify_data, and
#      assert every answer is bit-identical to a local InferenceEngine
#      (verify_failures == 0) with zero wire-level failures, and that a
#      negative --connections exits non-zero;
#   2. graceful drain: restart the server, SIGTERM it mid-replay, and
#      assert the server answered every request it read (requests ==
#      responses in the server summary — the zero-dropped-in-flight
#      guarantee) while the loadgen's accounting still sums to the stream
#      length (closed/not_sent requests are counted, never lost);
#   3. fault phase: rerun with --fault_spec='net.read:n=40' and assert
#      injected read faults surface as clean closed-connection outcomes at
#      the loadgen (faults_injected > 0, closed > 0, sum still exact) with
#      the server still draining to requests == responses.
#
# Usage: net_smoke.sh <hosr_cli binary> <hosr_serve binary> <hosr_loadgen binary>
set -eu

CLI="$1"
SERVE="$2"
LOADGEN="$3"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --out="$WORK/data" --preset=yelp --scale=0.02 --seed=3
"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckpt" --model=BPR \
  --epochs=2 --snapshot_out="$WORK/snap"
test -s "$WORK/snap" || { echo "FAIL: snapshot not written" >&2; exit 1; }

wait_for_port() {
  local port_file="$1"
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && return 0
    sleep 0.1
  done
  echo "FAIL: server never wrote $port_file" >&2
  exit 1
}

# --- phase 1: remote replay is bit-identical to the in-process engine --------

"$SERVE" --snapshot="$WORK/snap" --data="$WORK/data" \
  --port=0 --port_file="$WORK/port1" --workers=4 \
  --summary_out="$WORK/server1.json" > /dev/null &
SERVER_PID=$!
wait_for_port "$WORK/port1"

"$LOADGEN" --port="$(cat "$WORK/port1")" \
  --num_requests=1500 --k=10 --zipf=0.9 --seed=5 --connections=4 \
  --verify_snapshot="$WORK/snap" --verify_data="$WORK/data" \
  --summary_out="$WORK/loadgen1.json" > /dev/null

# A negative connection count is a clean error, never a wrapped SIZE_MAX.
# One request keeps even a wrapped count down to one connection.
if "$LOADGEN" --port="$(cat "$WORK/port1")" --num_requests=1 \
    --connections=-1 > "$WORK/bad_connections.log" 2>&1; then
  echo "FAIL: hosr_loadgen accepted --connections=-1" >&2
  exit 1
fi
# One past net::kMaxStreamRequests is rejected before the stream is built.
if "$LOADGEN" --port="$(cat "$WORK/port1")" --num_requests=16777217 \
    > "$WORK/bad_requests.log" 2>&1; then
  echo "FAIL: hosr_loadgen accepted --num_requests=16777217" >&2
  exit 1
fi
grep -q num_requests "$WORK/bad_requests.log" || {
  echo "FAIL: hosr_loadgen rejected --num_requests without naming it" >&2
  exit 1
}

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"

python3 - "$WORK/loadgen1.json" "$WORK/server1.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lg = json.load(f)
with open(sys.argv[2]) as f:
    srv = json.load(f)
assert lg["verified"], lg
assert lg["verify_failures"] == 0, lg
assert lg["outcomes"]["ok"] == 1500, lg
assert sum(lg["outcomes"].values()) == 1500, lg
assert lg["latency_us"]["p99"] >= lg["latency_us"]["p50"] > 0, lg
assert srv["net"]["requests"] == srv["net"]["responses"] == 1500, srv
assert srv["net"]["protocol_errors"] == 0, srv
print("net_smoke phase1 OK: 1500 remote answers bit-identical, qps=%.0f"
      % lg["qps"])
EOF

# --- phase 2: graceful drain mid-replay --------------------------------------

"$SERVE" --snapshot="$WORK/snap" --data="$WORK/data" \
  --port=0 --port_file="$WORK/port2" --workers=2 \
  --summary_out="$WORK/server2.json" > /dev/null &
SERVER_PID=$!
wait_for_port "$WORK/port2"

# Pace the replay (~2s of traffic) so the SIGTERM lands mid-stream.
"$LOADGEN" --port="$(cat "$WORK/port2")" \
  --num_requests=2000 --k=10 --seed=7 --connections=2 --qps=1000 \
  --summary_out="$WORK/loadgen2.json" > /dev/null &
LOADGEN_PID=$!
sleep 1
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
wait "$LOADGEN_PID" || true  # drained-away requests are tallied, not fatal

python3 - "$WORK/loadgen2.json" "$WORK/server2.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lg = json.load(f)
with open(sys.argv[2]) as f:
    srv = json.load(f)
# The drain guarantee: every request the server read got an answer.
assert srv["net"]["requests"] == srv["net"]["responses"], srv
assert srv["net"]["requests"] > 0, srv
# The loadgen saw real service before the drain, then clean failures:
# every request is accounted for exactly once.
assert lg["outcomes"]["ok"] > 0, lg
assert sum(lg["outcomes"].values()) == 2000, lg
print("net_smoke phase2 OK: drained at %d/%d answered, zero dropped in-flight"
      % (srv["net"]["responses"], 2000))
EOF

# --- phase 3: injected net.read faults stay clean ----------------------------

"$SERVE" --snapshot="$WORK/snap" --data="$WORK/data" \
  --port=0 --port_file="$WORK/port3" --workers=4 \
  --fault_spec='net.read:n=40' --fault_seed=1 \
  --summary_out="$WORK/server3.json" > /dev/null 2>&1 &
SERVER_PID=$!
wait_for_port "$WORK/port3"

"$LOADGEN" --port="$(cat "$WORK/port3")" \
  --num_requests=1000 --k=10 --seed=9 --connections=4 \
  --summary_out="$WORK/loadgen3.json" > /dev/null

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"

python3 - "$WORK/loadgen3.json" "$WORK/server3.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lg = json.load(f)
with open(sys.argv[2]) as f:
    srv = json.load(f)
assert srv["faults_injected"] > 0, srv
# Injected read faults answer with a clean status and close; the loadgen
# counts each as `closed` and redials — nothing hangs, nothing is lost.
assert lg["outcomes"]["closed"] > 0, lg
assert lg["outcomes"]["ok"] > 0, lg
assert sum(lg["outcomes"].values()) == 1000, lg
assert lg["reconnects"] >= lg["outcomes"]["closed"], lg
# Faulted frames are answered before the read, so they never count as
# requests — the drain invariant must still hold exactly.
assert srv["net"]["requests"] == srv["net"]["responses"], srv
print("net_smoke phase3 OK: %d injected read faults, %d clean closes, "
      "%d served" % (srv["faults_injected"], lg["outcomes"]["closed"],
                     lg["outcomes"]["ok"]))
EOF

echo "net_smoke OK"
