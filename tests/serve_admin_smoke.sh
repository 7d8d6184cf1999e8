#!/usr/bin/env bash
# Live-admin smoke test (wired as the `serve_admin_smoke` ctest):
#   1. train a tiny snapshot,
#   2. serve a replay with --admin_port=0 and probe every admin endpoint
#      over a real socket while the process is alive — including POST
#      /reloadz, which hot-swaps the replay's snapshot to version 2,
#   3. while the process lingers, assert the timeseries recorder (started by
#      --admin_port) keeps --metrics_out current: the file must already
#      parse and show the replay's final gauges before exit,
#   4. after exit, assert the latency histogram carries exemplar trace ids
#      that resolve against the trace artifact (same data /tracez serves),
#   5. rerun with an injected engine fault + --flight_dir and verify the
#      flight dump's CRC footer and JSON body.
#
# Usage: serve_admin_smoke.sh <hosr_cli binary> <hosr_serve binary>
set -eu

CLI="$1"
SERVE="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --out="$WORK/data" --preset=yelp --scale=0.02 --seed=3
"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckpt" --model=BPR \
  --epochs=2 --snapshot_out="$WORK/snap"

# --- live endpoint probing ----------------------------------------------------

"$SERVE" --snapshot="$WORK/snap" --data="$WORK/data" \
  --num_requests=500 --k=10 --zipf=0.9 --seed=5 \
  --admin_port=0 --admin_port_file="$WORK/port" --admin_linger_s=20 \
  --metrics_out="$WORK/metrics.json" --trace_out="$WORK/trace.json" \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
  [ -s "$WORK/port" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || {
    echo "FAIL: hosr_serve died before publishing its admin port" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  }
  sleep 0.1
done
[ -s "$WORK/port" ] || { echo "FAIL: admin port file never appeared" >&2; exit 1; }

python3 - "$(cat "$WORK/port")" <<'EOF'
import json, sys, urllib.request, urllib.error

port = int(sys.argv[1])
base = "http://127.0.0.1:%d" % port

def get(path, method="GET"):
    request = urllib.request.Request(base + path, method=method)
    try:
        with urllib.request.urlopen(request, timeout=10) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()

status, body = get("/healthz")
assert status == 200, (status, body)
assert json.loads(body)["status"] == "ok", body

status, body = get("/readyz")
assert status == 200, (status, body)
assert json.loads(body)["ready"] is True, body

status, body = get("/varz")
assert status == 200, (status, body)
varz = json.loads(body)
assert varz["vars"]["binary"] == "hosr_serve", varz

status, body = get("/metricsz")
assert status == 200, (status, body)
metrics = json.loads(body)["metrics"]
assert any(name.startswith("serve/") for name in metrics), sorted(metrics)

status, body = get("/tracez")
assert status == 200, (status, body)
assert "traceEvents" in json.loads(body), body[:200]

status, body = get("/tracez?limit=4")
assert status == 200, (status, body)
assert body.count('"ph"') <= 4, body.count('"ph"')

# Replay mode serves through a SnapshotManager as well, so POST /reloadz
# swaps in a freshly validated copy of the artifact as version 2.
status, body = get("/reloadz", method="POST")
assert status == 200, (status, body)
assert json.loads(body)["active_version"] == 2, body
status, body = get("/varz")
assert status == 200, (status, body)
assert json.loads(body)["vars"]["snapshot_version"] == "2", body

status, body = get("/nonesuch")
assert status == 404, (status, body)
json.loads(body)  # 404 body is the machine-readable endpoint list

print("serve_admin_smoke: live endpoints OK on port %d" % port)
EOF

# --- the recorder keeps --metrics_out current before exit ----------------------

python3 - "$WORK/metrics.json" <<'EOF'
import json, sys, time

# Recorder ticks run every second; the replay's summary gauges land in the
# registry once the replay ends, a few ticks into the 20 s linger.
deadline = time.time() + 10
while True:
    try:
        with open(sys.argv[1]) as f:
            metrics = json.load(f)["metrics"]
        if "serve/replay_qps" in metrics:
            break
    except (OSError, ValueError):
        pass  # not written yet
    assert time.time() < deadline, "no current --metrics_out during linger"
    time.sleep(0.2)
print("serve_admin_smoke: --metrics_out current during linger")
EOF
kill -0 "$SERVE_PID" 2>/dev/null || {
  echo "FAIL: hosr_serve exited before the linger check finished" >&2
  exit 1
}

wait "$SERVE_PID" || {
  echo "FAIL: hosr_serve exited nonzero" >&2
  cat "$WORK/serve.log" >&2
  exit 1
}

# --- exemplars resolve against the trace --------------------------------------

python3 - "$WORK/metrics.json" "$WORK/trace.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    metrics = json.load(f)["metrics"]
with open(sys.argv[2]) as f:
    trace = json.load(f)

hist = metrics["serve/request_latency_ms"]
exemplar_ids = {
    bucket["exemplar"]["trace_id"]
    for bucket in hist["buckets"]
    if "exemplar" in bucket
}
assert exemplar_ids, "no exemplars in serve/request_latency_ms: %s" % hist

traced_ids = {
    event["args"]["trace_id"]
    for event in trace["traceEvents"]
    if "args" in event and "trace_id" in event["args"]
}
unresolved = exemplar_ids - traced_ids
assert not unresolved, "exemplar trace ids missing from trace: %s" % unresolved
print("serve_admin_smoke: %d exemplar trace ids all resolve" % len(exemplar_ids))
EOF

# --- injected fault produces a CRC-verified flight dump -----------------------

mkdir -p "$WORK/flight"
"$SERVE" --snapshot="$WORK/snap" --data="$WORK/data" \
  --num_requests=500 --k=10 --zipf=0.9 --seed=5 \
  --fault_spec=engine.score:p=0.2 --flight_dir="$WORK/flight" > /dev/null

python3 - "$WORK/flight" <<'EOF'
import glob, json, os, sys, zlib

dumps = sorted(glob.glob(os.path.join(sys.argv[1], "flight_*.json")))
assert dumps, "no flight dump written"
with open(dumps[0], "rb") as f:
    raw = f.read()
body, footer = raw[:-4], raw[-4:]
expected = int.from_bytes(footer, "little")
assert zlib.crc32(body) & 0xFFFFFFFF == expected, "flight dump CRC mismatch"
dump = json.loads(body.decode())
assert dump["reason"].startswith("fault:engine.score"), dump["reason"]
assert "metrics" in dump and "trace" in dump and "notes" in dump, dump.keys()
print("serve_admin_smoke: flight dump %s CRC-verified (reason=%s)"
      % (os.path.basename(dumps[0]), dump["reason"]))
EOF
