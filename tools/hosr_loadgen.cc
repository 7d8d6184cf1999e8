// hosr_loadgen — remote load generator for a hosr_serve --port server.
//
// Dials N persistent connections, replays the same scripted or synthetic
// request stream hosr_serve replays in process (net/stream.h, so a given
// (--seed, --zipf, --k, --num_requests) produces the identical stream), and
// reports achieved QPS, exact p50/p95/p99 wire latency, and per-outcome
// tallies as JSON — on stdout and to --summary_out.
//
//   hosr_loadgen --port=N [--host=127.0.0.1]
//                [--requests=FILE]        scripted stream: "user [k]" lines
//                [--num_requests=10000]   synthetic stream length
//                [--k=10] [--zipf=0.9] [--seed=1]
//                [--connections=4]        concurrent client connections
//                                         (at most 256)
//                [--qps=0]                target rate (0 = max speed)
//                [--deadline_ms=0]        wire deadline per request
//                [--connect_timeout_ms=5000] [--read_timeout_ms=30000]
//                [--reconnect_backoff_ms=0]  backoff before each failed
//                                         redial (decorrelated jitter via
//                                         RetryPolicy, reset on success);
//                                         0 = redial immediately
//                [--reconnect_backoff_max_ms=250]
//                [--verify_snapshot=FILE] check every OK answer is
//                                         bit-identical to a local
//                                         InferenceEngine over this snapshot
//                [--verify_snapshot_b=FILE]  hot-swap runs: accept answers
//                                         matching EITHER snapshot's engine
//                                         (counted separately as
//                                         matched_a / matched_b)
//                [--verify_data=DIR]      seen-item filtering for the
//                                         verify engine (must match the
//                                         server's --data)
//                [--summary_out=FILE]
//
// Each request's trace_id is its stream index + 1, matching hosr_serve's
// replay convention — so server-side spans, exemplars, and injected fault
// outcomes line up one-to-one with the stream. A connection the server
// closes (protocol fault, shed, drain) is counted (closed / shed / error)
// and redialed; requests that never got written after the server vanished
// count as not_sent, so ok + degraded + deadline_exceeded + shed + error +
// closed + not_sent always equals the stream length.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/io.h"
#include "net/client.h"
#include "net/stream.h"
#include "serve/engine.h"
#include "serve/retry.h"
#include "serve/snapshot.h"
#include "util/fileio.h"
#include "util/flags.h"
#include "util/statusor.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace hosr;

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Outcomes plus the wire-only failure classes replay mode cannot have.
struct WireTally {
  net::Outcomes outcomes;
  uint64_t closed = 0;    // connection dropped mid-request (server fault/drain)
  uint64_t not_sent = 0;  // reconnect failed; request never hit the wire
  uint64_t reconnects = 0;
  uint64_t backoff_waits = 0;  // reconnect delays actually slept
  uint64_t verify_failures = 0;
  uint64_t matched_a = 0;  // verified answers bit-identical to snapshot A
  uint64_t matched_b = 0;  // ... to snapshot B (--verify_snapshot_b)

  WireTally& operator+=(const WireTally& other) {
    outcomes += other.outcomes;
    closed += other.closed;
    not_sent += other.not_sent;
    reconnects += other.reconnects;
    backoff_waits += other.backoff_waits;
    verify_failures += other.verify_failures;
    matched_a += other.matched_a;
    matched_b += other.matched_b;
    return *this;
  }
};

// Jittered pacing between redial attempts so a fleet of loadgen
// connections does not hot-spin the accept queue while the server drains
// or restarts. Decorrelated jitter comes from serve::RetryPolicy; one
// successful reconnect resets the schedule back to the initial backoff.
class ReconnectBackoff {
 public:
  ReconnectBackoff(double initial_ms, double max_ms, uint64_t seed)
      : initial_ms_(initial_ms), max_ms_(max_ms), seed_(seed) {
    Reset();
  }

  // Sleeps for the next planned delay (no-op when backoff is disabled).
  // Returns true when it actually slept.
  bool WaitBeforeRedial() {
    if (initial_ms_ <= 0.0) return false;
    double delay_ms = policy_->NextDelayMs();
    if (delay_ms < 0.0) {
      // The policy's attempt cap is effectively unreachable; a negative
      // here means the schedule ran dry anyway — keep waiting at the cap.
      delay_ms = max_ms_;
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        delay_ms));
    return true;
  }

  void Reset() {
    serve::RetryPolicy::Options options;
    options.max_attempts = 1 << 30;  // paced by the caller's stream, not us
    options.initial_backoff_ms = initial_ms_;
    options.max_backoff_ms = max_ms_;
    policy_.emplace(options, seed_);
  }

 private:
  double initial_ms_;
  double max_ms_;
  uint64_t seed_;
  std::optional<serve::RetryPolicy> policy_;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::Parse(argc, argv);
  if (!flags.Has("port")) {
    std::fprintf(stderr, "usage: hosr_loadgen --port=N [flags]\n"
                         "  see the header of tools/hosr_loadgen.cc\n");
    return 2;
  }
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const std::string host = flags.GetString("host", "127.0.0.1");
  net::NetClient::Options client_options;
  client_options.connect_timeout_ms =
      static_cast<int>(flags.GetInt("connect_timeout_ms", 5000));
  client_options.read_timeout_ms =
      static_cast<int>(flags.GetInt("read_timeout_ms", 30000));

  // The server knows the model's user space; ask it before generating the
  // synthetic stream so loadgen needs no local copy of the snapshot.
  auto probe = net::NetClient::Connect(host, port, client_options);
  if (!probe.ok()) return Fail(probe.status());
  auto info = probe->Info();
  if (!info.ok()) return Fail(info.status());
  const uint32_t num_users = info->num_users;

  // Count flags are range-checked: a negative or oversized value is a clean
  // error, never a wrapped size_t.
  const auto default_k = flags.GetUint32("k", 10, 1, info->num_items);
  if (!default_k.ok()) return Fail(default_k.status());
  const auto num_requests =
      flags.GetUint32("num_requests", 10000, 0, net::kMaxStreamRequests);
  if (!num_requests.ok()) return Fail(num_requests.status());
  const auto connections_flag =
      flags.GetUint32("connections", 4, 0, net::kMaxToolThreads);
  if (!connections_flag.ok()) return Fail(connections_flag.status());
  const auto deadline_ms = flags.GetUint32("deadline_ms", 0);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());

  std::vector<net::StreamRequest> requests;
  const std::string requests_path = flags.GetString("requests", "");
  if (!requests_path.empty()) {
    auto loaded = net::LoadRequestScript(requests_path, num_users, *default_k);
    if (!loaded.ok()) return Fail(loaded.status());
    requests = std::move(loaded).value();
  } else {
    requests = net::SyntheticStream(
        num_users, *num_requests, *default_k, flags.GetDouble("zipf", 0.9),
        static_cast<uint64_t>(flags.GetInt("seed", 1)));
  }

  // Bit-identity oracle: a local engine over the same snapshot. Only OK,
  // non-degraded, non-cached full answers are compared — those must equal
  // InferenceEngine::TopKForUser exactly (cached answers equal an earlier
  // identical query, and degraded answers come from the fallback ranker).
  // With --verify_snapshot_b (hot-swap runs) an answer matching EITHER
  // engine passes; anything matching neither is a verify failure, so a
  // reply blending two snapshots — the stale-cache hazard — is caught.
  std::unique_ptr<serve::InferenceEngine> verify_engine;
  std::unique_ptr<serve::InferenceEngine> verify_engine_b;
  const std::string verify_snapshot = flags.GetString("verify_snapshot", "");
  const std::string verify_snapshot_b =
      flags.GetString("verify_snapshot_b", "");
  if (verify_snapshot.empty() && !verify_snapshot_b.empty()) {
    return Fail(util::Status::InvalidArgument(
        "--verify_snapshot_b requires --verify_snapshot"));
  }
  if (!verify_snapshot.empty()) {
    // The oracle must filter the same seen items the server filters, or
    // the comparison is meaningless for any user with training history.
    std::unique_ptr<data::Dataset> verify_dataset;
    const std::string verify_data = flags.GetString("verify_data", "");
    if (!verify_data.empty()) {
      auto loaded = data::LoadDataset(verify_data);
      if (!loaded.ok()) return Fail(loaded.status());
      verify_dataset =
          std::make_unique<data::Dataset>(std::move(loaded).value());
    }
    const auto build_oracle =
        [&](const std::string& path)
        -> util::StatusOr<std::unique_ptr<serve::InferenceEngine>> {
      auto snapshot = serve::LoadSnapshot(path);
      if (!snapshot.ok()) return snapshot.status();
      if (snapshot->num_users() != num_users ||
          snapshot->num_items() != info->num_items) {
        return util::Status::InvalidArgument(util::StrFormat(
            "verify snapshot %s %ux%u does not match server %ux%u",
            path.c_str(), snapshot->num_users(), snapshot->num_items(),
            num_users, info->num_items));
      }
      // The engine copies the per-user item lists, so the dataset can die
      // with this scope.
      return std::make_unique<serve::InferenceEngine>(
          std::move(snapshot).value(),
          verify_dataset != nullptr ? &verify_dataset->interactions
                                    : nullptr);
    };
    auto oracle = build_oracle(verify_snapshot);
    if (!oracle.ok()) return Fail(oracle.status());
    verify_engine = std::move(oracle).value();
    if (!verify_snapshot_b.empty()) {
      auto oracle_b = build_oracle(verify_snapshot_b);
      if (!oracle_b.ok()) return Fail(oracle_b.status());
      verify_engine_b = std::move(oracle_b).value();
    }
  }

  const size_t connections = std::max<size_t>(
      1, std::min<size_t>(*connections_flag, requests.size()));
  const double qps_target = flags.GetDouble("qps", 0.0);
  const double backoff_ms = flags.GetDouble("reconnect_backoff_ms", 0.0);
  const double backoff_max_ms =
      flags.GetDouble("reconnect_backoff_max_ms", 250.0);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  std::vector<std::vector<int64_t>> latencies_ns(connections);
  std::vector<WireTally> tallies(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const util::WallTimer timer;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const size_t begin = c * requests.size() / connections;
      const size_t end = (c + 1) * requests.size() / connections;
      auto& recorded = latencies_ns[c];
      WireTally& tally = tallies[c];
      recorded.reserve(end - begin);
      ReconnectBackoff backoff(backoff_ms, backoff_max_ms, seed + c);
      auto client = net::NetClient::Connect(host, port, client_options);
      const double per_conn_period_s =
          qps_target > 0.0 ? static_cast<double>(connections) / qps_target
                           : 0.0;
      auto next_send = std::chrono::steady_clock::now();
      for (size_t i = begin; i < end; ++i) {
        if (per_conn_period_s > 0.0) {
          std::this_thread::sleep_until(next_send);
          next_send += std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(per_conn_period_s));
        }
        if (!client.ok() || !client->connected()) {
          // Redial once per request, pacing with jittered backoff (when
          // enabled) so a draining server is not hammered; a down server
          // costs one not_sent tally each.
          if (backoff.WaitBeforeRedial()) ++tally.backoff_waits;
          if (client.ok()) {
            if (!client->Reconnect().ok()) {
              ++tally.not_sent;
              continue;
            }
          } else {
            client = net::NetClient::Connect(host, port, client_options);
            if (!client.ok()) {
              ++tally.not_sent;
              continue;
            }
          }
          ++tally.reconnects;
          backoff.Reset();  // the dial worked; next outage starts small
        }
        const net::StreamRequest& r = requests[i];
        const auto start = std::chrono::steady_clock::now();
        auto result = client->Query(r.user, r.k,
                                    /*trace_id=*/static_cast<uint64_t>(i) + 1,
                                    *deadline_ms);
        recorded.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        if (result.ok()) {
          tally.outcomes.CountOk(result->degraded);
          if (verify_engine != nullptr && !result->degraded &&
              !result->served_from_cache) {
            if (result->items == verify_engine->TopKForUser(r.user, r.k)) {
              ++tally.matched_a;
            } else if (verify_engine_b != nullptr &&
                       result->items ==
                           verify_engine_b->TopKForUser(r.user, r.k)) {
              ++tally.matched_b;
            } else {
              ++tally.verify_failures;
            }
          }
          continue;
        }
        const util::StatusCode code = result.status().code();
        if (code == util::StatusCode::kUnavailable) {
          // Shed/drain/fault: the server said goodbye cleanly or the
          // connection died; either way this connection must redial —
          // paced, because a drain window answers every redial this way.
          ++tally.closed;
          if (backoff.WaitBeforeRedial()) ++tally.backoff_waits;
          if (client->Reconnect().ok()) {
            ++tally.reconnects;
            backoff.Reset();
          }
        } else {
          tally.outcomes.CountStatus(result.status());
          if (code == util::StatusCode::kDeadlineExceeded ||
              code == util::StatusCode::kIoError) {
            // Timeouts / transport errors leave the stream desynced.
            if (client->Reconnect().ok()) ++tally.reconnects;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = timer.ElapsedSeconds();

  WireTally total;
  for (const WireTally& t : tallies) total += t;
  std::vector<int64_t> all_ns;
  all_ns.reserve(requests.size());
  for (const auto& per_conn : latencies_ns) {
    all_ns.insert(all_ns.end(), per_conn.begin(), per_conn.end());
  }
  const net::LatencySummary latency = net::SummarizeLatencies(&all_ns);
  const uint64_t answered = total.outcomes.total();
  const double qps =
      elapsed > 0.0 ? static_cast<double>(answered) / elapsed : 0.0;

  const std::string summary = util::StrFormat(
      "{\"host\": \"%s\", \"port\": %d, \"requests\": %zu, "
      "\"connections\": %zu, \"deadline_ms\": %u, "
      "\"elapsed_seconds\": %.4f, \"qps\": %.1f, "
      "\"latency_us\": {\"mean\": %.2f, \"p50\": %.2f, \"p95\": %.2f, "
      "\"p99\": %.2f}, "
      "\"outcomes\": {\"ok\": %llu, \"degraded\": %llu, "
      "\"deadline_exceeded\": %llu, \"shed\": %llu, \"error\": %llu, "
      "\"closed\": %llu, \"not_sent\": %llu}, "
      "\"reconnects\": %llu, \"backoff_waits\": %llu, \"verified\": %s, "
      "\"verify_failures\": %llu, \"matched_a\": %llu, \"matched_b\": %llu}",
      host.c_str(), port, requests.size(), connections, *deadline_ms,
      elapsed, qps, latency.mean_us, latency.p50_us, latency.p95_us,
      latency.p99_us,
      static_cast<unsigned long long>(total.outcomes.ok),
      static_cast<unsigned long long>(total.outcomes.degraded),
      static_cast<unsigned long long>(total.outcomes.deadline_exceeded),
      static_cast<unsigned long long>(total.outcomes.shed),
      static_cast<unsigned long long>(total.outcomes.error),
      static_cast<unsigned long long>(total.closed),
      static_cast<unsigned long long>(total.not_sent),
      static_cast<unsigned long long>(total.reconnects),
      static_cast<unsigned long long>(total.backoff_waits),
      verify_engine != nullptr ? "true" : "false",
      static_cast<unsigned long long>(total.verify_failures),
      static_cast<unsigned long long>(total.matched_a),
      static_cast<unsigned long long>(total.matched_b));
  std::printf("%s\n", summary.c_str());
  const std::string summary_out = flags.GetString("summary_out", "");
  if (!summary_out.empty()) {
    if (auto status = util::WriteFileAtomic(summary_out, summary + "\n");
        !status.ok()) {
      return Fail(status);
    }
  }
  // Verification failures are the one condition that must fail the process:
  // they mean the wire path changed an answer.
  return total.verify_failures == 0 ? 0 : 1;
}
