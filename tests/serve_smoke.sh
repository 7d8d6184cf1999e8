#!/usr/bin/env bash
# Serving smoke test (wired as the `serve_smoke` ctest):
#   1. generate a tiny synthetic YelpLike dataset,
#   2. train BPR for 2 epochs and export a serving snapshot,
#   3. replay 1k skewed requests through hosr_serve,
#   4. assert nonzero cache hits and valid JSON metrics + summary output,
#   5. assert a negative --clients exits non-zero.
#
# Usage: serve_smoke.sh <hosr_cli binary> <hosr_serve binary>
set -eu

CLI="$1"
SERVE="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" generate --out="$WORK/data" --preset=yelp --scale=0.02 --seed=3

"$CLI" train --data="$WORK/data" --checkpoint="$WORK/ckpt" --model=BPR \
  --epochs=2 --snapshot_out="$WORK/snap"
test -s "$WORK/snap" || { echo "FAIL: snapshot not written" >&2; exit 1; }

"$SERVE" --snapshot="$WORK/snap" --data="$WORK/data" \
  --num_requests=1000 --k=10 --zipf=0.9 --seed=5 \
  --metrics_out="$WORK/metrics.json" --summary_out="$WORK/summary.json"

# A negative thread count is a clean error, never a wrapped SIZE_MAX. One
# request keeps even a wrapped count down to one replay thread.
if "$SERVE" --snapshot="$WORK/snap" --num_requests=1 --clients=-1 \
    > "$WORK/bad_clients.log" 2>&1; then
  echo "FAIL: hosr_serve accepted --clients=-1" >&2
  exit 1
fi

# Counts that size up-front allocations are bounded too: one past the
# stream bound (net::kMaxStreamRequests) and past the shard bound
# (serve::kMaxCacheShards) are rejected before anything is reserved.
for bad in --num_requests=16777217 --cache_shards=1025; do
  if "$SERVE" --snapshot="$WORK/snap" --num_requests=1 "$bad" \
      > "$WORK/bad_count.log" 2>&1; then
    echo "FAIL: hosr_serve accepted $bad" >&2
    exit 1
  fi
  grep -q -e "${bad%%=*}" "$WORK/bad_count.log" || {
    echo "FAIL: hosr_serve rejected $bad without naming it" >&2
    cat "$WORK/bad_count.log" >&2
    exit 1
  }
done

python3 - "$WORK/summary.json" "$WORK/metrics.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    summary = json.load(f)
with open(sys.argv[2]) as f:
    metrics = json.load(f)

assert summary["requests"] == 1000, summary
assert summary["qps"] > 0, summary
assert summary["latency_us"]["p50"] > 0, summary
assert summary["latency_us"]["p99"] >= summary["latency_us"]["p50"], summary
assert summary["cache"]["enabled"], summary
assert summary["cache"]["hits"] > 0, "expected nonzero cache hits"
assert 0.0 < summary["cache"]["hit_rate"] <= 1.0, summary

names = metrics["metrics"].keys()
assert "serve/queries" in names, sorted(names)
assert "serve/cache_hits" in names, sorted(names)
assert metrics["metrics"]["serve/cache_hits"]["value"] > 0, metrics
print("serve_smoke OK: qps=%.0f hit_rate=%.3f" %
      (summary["qps"], summary["cache"]["hit_rate"]))
EOF
