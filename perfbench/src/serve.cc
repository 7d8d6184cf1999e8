// serve_uniform and serve_zipf_reload: open-loop serving over loopback TCP
// from an in-process NetServer backed by a SnapshotManager. Also the
// serving-layer probes and the waterfall every traced run reports.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <thread>

#include "common.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "net/stream.h"
#include "net/wire.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/reload.h"
#include "serve/snapshot.h"
#include "util/logging.h"

namespace hosr::perfbench {

namespace {

struct ServingStack {
  std::unique_ptr<serve::ResultCache> cache;
  std::unique_ptr<serve::SnapshotManager> manager;
  std::unique_ptr<net::NetServer> server;
};

// The server of every serving measurement: NetServer with the configured
// worker count, reaching snapshots only through a SnapshotManager whose
// file watcher stays off; the result cache only when the workload has one.
ServingStack StartServing(const ServeParams& p) {
  ServingStack stack;
  if (p.use_cache) stack.cache = std::make_unique<serve::ResultCache>();
  serve::SnapshotManager::Options manager_options;
  manager_options.path = p.snapshot_a;
  manager_options.seen = &p.data->split.train.interactions;
  manager_options.cache = stack.cache.get();
  auto manager = serve::SnapshotManager::Create(manager_options);
  HOSR_CHECK(manager.ok()) << manager.status().ToString();
  stack.manager = std::move(manager).value();
  net::NetServer::Options server_options;
  server_options.worker_threads = p.options->server_workers;
  server_options.manager = stack.manager.get();
  server_options.cache = stack.cache.get();
  stack.server = std::make_unique<net::NetServer>(server_options);
  const util::Status started = stack.server->Start();
  HOSR_CHECK(started.ok()) << started.ToString();
  return stack;
}

// In-process answers of each snapshot for every user, computed before any
// traffic: the oracle every served reply is checked against. Read-only
// afterwards, so client threads may consult it concurrently.
class Oracle {
 public:
  explicit Oracle(const ServeParams& p) {
    for (const std::string& path : {p.snapshot_a, p.snapshot_b}) {
      auto snapshot = serve::LoadSnapshot(path);
      HOSR_CHECK(snapshot.ok()) << snapshot.status().ToString();
      const serve::InferenceEngine engine(std::move(snapshot).value(),
                                          &p.data->split.train.interactions);
      std::vector<std::vector<uint32_t>> answers(engine.num_users());
      for (uint32_t user = 0; user < engine.num_users(); ++user) {
        answers[user] = engine.TopKForUser(user, p.options->k);
      }
      answers_.push_back(std::move(answers));
    }
  }

  // True when `items` is what snapshot A (or, with allow_b, B) answers.
  bool Matches(uint32_t user, const std::vector<uint32_t>& items,
               bool allow_b) const {
    return items == answers_[0][user] ||
           (allow_b && items == answers_[1][user]);
  }

 private:
  std::vector<std::vector<std::vector<uint32_t>>> answers_;
};

struct Tally {
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;
  uint64_t mismatched = 0;
};

void CheckReplies(const std::vector<Reply>& replies, Tally* tally) {
  for (const Reply& r : replies) {
    ++tally->sent;
    if (!r.ok || r.degraded) {
      ++tally->failed;
      continue;
    }
    ++tally->checked;
    if (!r.matches) ++tally->mismatched;
  }
}

// Publishes B, A, B, ... with ReloadNow every `period_s` while traffic
// runs, timing each call.
class Reloader {
 public:
  Reloader(serve::SnapshotManager* manager, std::vector<std::string> paths,
           double period_s)
      : manager_(manager), paths_(std::move(paths)), period_s_(period_s),
        thread_([this] { Loop(); }) {}
  ~Reloader() { Stop(); }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& reload_us() const { return reload_us_; }
  bool all_ok() const { return all_ok_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (size_t n = 0;; ++n) {
      if (cv_.wait_for(lock, std::chrono::duration<double>(period_s_),
                       [this] { return stop_; })) {
        return;
      }
      lock.unlock();
      const int64_t t0 = NowNs();
      util::Status status;
      {
        SpanScope span("serve.ReloadNow", n + 1);
        status = manager_->ReloadNow(paths_[n % paths_.size()]);
      }
      const double us = (NowNs() - t0) / 1e3;
      lock.lock();
      reload_us_.push_back(us);
      all_ok_ = all_ok_ && status.ok();
    }
  }

  serve::SnapshotManager* manager_;
  std::vector<std::string> paths_;
  double period_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> reload_us_;
  bool all_ok_ = true;
  std::thread thread_;  // last: starts after the members it uses
};

// The reloader of a workload that publishes snapshots under traffic.
std::unique_ptr<Reloader> StartReloads(ServingStack* stack,
                                       const ServeParams& p) {
  if (!p.reload_under_traffic) return nullptr;
  return std::make_unique<Reloader>(
      stack->manager.get(),
      std::vector<std::string>{p.snapshot_b, p.snapshot_a},
      p.options->reload_period_s);
}

// The µs of every ReloadNow of the run: the reloader's when snapshots were
// published under traffic, else nine republished now that traffic has
// stopped. Gates on every one succeeding.
std::vector<double> FinishReloads(Reloader* reloader,
                                  serve::SnapshotManager* manager,
                                  const ServeParams& p, Report* report) {
  std::vector<double> us;
  bool all_ok = true;
  if (reloader != nullptr) {
    reloader->Stop();
    us = reloader->reload_us();
    all_ok = reloader->all_ok();
  } else {
    for (int n = 0; n < 9; ++n) {
      const int64_t t0 = NowNs();
      SpanScope span("serve.ReloadNow", static_cast<uint64_t>(n) + 1);
      const util::Status status =
          manager->ReloadNow(n % 2 == 0 ? p.snapshot_b : p.snapshot_a);
      us.push_back((NowNs() - t0) / 1e3);
      all_ok = all_ok && status.ok();
    }
  }
  report->Gate("reloads_ok", all_ok && !us.empty(),
               std::to_string(us.size()) + " ReloadNow calls");
  return us;
}

// Stops the server and gates on its accounting.
net::NetServer::Stats StopServing(ServingStack* stack, Report* report) {
  stack->server->Stop();
  const net::NetServer::Stats stats = stack->server->GetStats();
  report->Gate("requests_eq_responses", stats.requests == stats.responses,
               "NetServer after Stop: " + std::to_string(stats.requests) +
                   " requests, " + std::to_string(stats.responses) +
                   " responses");
  return stats;
}

void GateReplies(const Tally& tally, Report* report) {
  report->Gate("replies_match_oracle",
               tally.mismatched == 0 && tally.checked > 0,
               std::to_string(tally.checked) + " replies checked against " +
                   "InferenceEngine::TopKForUser, " +
                   std::to_string(tally.mismatched) + " differ");
  report->AddAttempts(tally.sent, tally.failed);
}

size_t CountSubnormals(const std::vector<float>& values) {
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(), [](float v) {
        return std::fpclassify(v) == FP_SUBNORMAL;
      }));
}

size_t CountSubnormals(const tensor::Matrix& m) {
  return CountSubnormals(std::vector<float>(m.data(), m.data() + m.size()));
}

}  // namespace

void MeasureServing(const ServeParams& p, Report* report) {
  const RunOptions& options = *p.options;
  ServingStack stack = StartServing(p);
  const Oracle oracle(p);
  const Verifier verify = [&](uint32_t user,
                              const std::vector<uint32_t>& items) {
    return oracle.Matches(user, items, p.reload_under_traffic);
  };
  util::Rng rng(options.seed ^ 0x6c62272e07bb0142ULL);
  const uint32_t users = p.data->split.train.num_users();
  Tally tally;
  uint64_t trace_base = 1;
  const auto run_phase = [&](double rate, double seconds) {
    const std::vector<Arrival> schedule =
        PoissonSchedule(rate, seconds, users, p.zipf, &rng);
    std::vector<Reply> replies =
        RunOpenLoop(stack.server->port(), schedule,
                    options.client_connections, options.k, trace_base, verify);
    trace_base += replies.size();
    CheckReplies(replies, &tally);
    return replies;
  };

  run_phase(options.fixed_rate, 0.3);  // warm-up
  const std::unique_ptr<Reloader> reloader = StartReloads(&stack, p);
  // Latency at the fixed offered rate, over back-to-back parts; p50 is
  // the lowest any part reached. A VM's vCPU stalls only ever add
  // latency, and the least disturbed part measures the program rather
  // than its neighbours. The tail is logged here but reported only per
  // layer (gen.p99_us, gen.p999_us): those stalls set it.
  constexpr int kParts = 4;
  const double part_s = p.seconds * 0.55 / kParts;
  double p50_us = std::numeric_limits<double>::infinity();
  for (int part = 0; part < kParts; ++part) {
    const PhaseStats s =
        Summarize(run_phase(options.fixed_rate, part_s), part_s);
    std::fprintf(stderr,
                 "fixed %.0f req/s part %d: sent %zu, ok %zu, failed %zu, "
                 "p50 %.1f us, p99 %.1f us, tail %.1f us, late p99 %.1f us\n",
                 s.offered_rate, part, s.sent, s.ok, s.failed, s.p50_us,
                 s.p99_us, s.tail_us, s.late_p99_us);
    p50_us = std::min(p50_us, s.p50_us);
  }

  // Capacity: completed requests per second with every connection always
  // busy (a closed loop), over four parts of 10% of --seconds each. The
  // best part is reported: stalls only ever lower it.
  double capacity_qps = 0.0;
  const double closed_s = p.seconds * 0.1;
  for (int part = 0; part < kParts; ++part) {
    std::vector<uint32_t> stream(1 << 16);
    for (uint32_t& user : stream) {
      user = net::SampleZipfUser(&rng, users, p.zipf);
    }
    const std::vector<Reply> replies =
        RunClosedLoop(stack.server->port(), stream,
                      options.client_connections, options.k, closed_s,
                      trace_base, verify);
    trace_base += replies.size();
    CheckReplies(replies, &tally);
    const PhaseStats s = Summarize(replies, closed_s);
    std::fprintf(stderr,
                 "closed loop part %d: %zu sent, %zu ok, %zu failed, %.0f "
                 "req/s, p50 %.1f us\n",
                 part, s.sent, s.ok, s.failed, s.ok / closed_s, s.p50_us);
    capacity_qps = std::max(capacity_qps, s.ok / closed_s);
  }

  const std::vector<double> reload_us =
      FinishReloads(reloader.get(), stack.manager.get(), p, report);
  StopServing(&stack, report);
  GateReplies(tally, report);
  report->Set("p50_us", p50_us, "us");
  report->Set("capacity_qps", capacity_qps, "1/s");
  report->Set("reload_ms", Median(reload_us) / 1e3, "ms");
}

void ServeLayerSweep(const ServeParams& p, Report* report) {
  const RunOptions& options = *p.options;
  ServingStack stack = StartServing(p);
  const Oracle oracle(p);
  const Verifier verify = [&](uint32_t user,
                              const std::vector<uint32_t>& items) {
    return oracle.Matches(user, items, p.reload_under_traffic);
  };
  util::Rng rng(options.seed ^ 0x6c62272e07bb0142ULL);
  const uint32_t users = p.data->split.train.num_users();
  const uint32_t k = options.k;
  Tally tally;
  Spans& spans = Spans::Get();

  // One stream, replayed untraced then traced: the p50 ratio is the
  // tracing overhead.
  const double phase_s = p.seconds * 0.4;
  const std::vector<Arrival> schedule =
      PoissonSchedule(options.fixed_rate, phase_s, users, p.zipf, &rng);
  const std::unique_ptr<Reloader> reloader = StartReloads(&stack, p);
  PhaseStats phase[2];
  for (int traced = 0; traced < 2; ++traced) {
    spans.set_enabled(traced == 1);
    const std::vector<Reply> replies =
        RunOpenLoop(stack.server->port(), schedule,
                    options.client_connections, k, 1 + traced * 1'000'000,
                    verify);
    CheckReplies(replies, &tally);
    phase[traced] = Summarize(replies, phase_s);
  }
  spans.set_enabled(true);
  if (!report->Has("trace.overhead_ratio")) {
    report->Set("trace.overhead_ratio", phase[1].p50_us / phase[0].p50_us,
                "ratio");
  }
  // The tail at the fixed rate, from the untraced pass. Reported per
  // layer, not end to end: vCPU stalls set it (see MeasureServing).
  report->Set("gen.p99_us", phase[0].p99_us, "us");
  report->Set("gen.p999_us", phase[0].tail_us, "us");
  const PhaseStats& traced = phase[1];
  report->Set("net.query_us.p50", traced.query_p50_us, "us");
  report->Set("net.query_us.p99", traced.query_p99_us, "us");
  report->Set("gen.late_us.p99", traced.late_p99_us, "us");
  report->Set("gen.sent", static_cast<double>(traced.sent), "count");
  report->Set("gen.ok", static_cast<double>(traced.ok), "count");
  report->Set("gen.failed", static_cast<double>(traced.failed), "count");

  // The waterfall: the same users replayed one at a time through engine,
  // executor, Acquire + executor, cache + Acquire + executor, and
  // NetClient over loopback. Each stage's p50/p99 minus the previous
  // stage's is what that layer adds.
  std::vector<uint32_t> stream;
  for (size_t i = 0; i < std::min<size_t>(schedule.size(), 3000); ++i) {
    stream.push_back(schedule[i].user);
  }
  const auto pinned = stack.manager->Acquire();
  serve::ResultCache probe_cache;
  auto connected = net::NetClient::Connect("127.0.0.1", stack.server->port());
  HOSR_CHECK(connected.ok()) << connected.status().ToString();
  auto client = std::make_unique<net::NetClient>(std::move(connected).value());
  std::vector<double> acquire_us, cache_get_us;
  const char* const kStages[] = {"waterfall.engine", "waterfall.executor",
                                 "waterfall.acquire", "waterfall.cache",
                                 "waterfall.net"};
  std::vector<double> stage_us[5];
  uint64_t waterfall_mismatches = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const uint32_t user = stream[i];
    const uint64_t id = 2'000'000 + i;
    for (int stage = 0; stage < 5; ++stage) {
      std::vector<uint32_t> items;
      const int64_t t0 = NowNs();
      {
        SpanScope span(kStages[stage], id);
        switch (stage) {
          case 0: {
            SpanScope inner("serve.TopKForUser", id);
            items = pinned->engine().TopKForUser(user, k);
            break;
          }
          case 1: {
            SpanScope inner("serve.Execute", id);
            auto served = pinned->executor().Execute(user, k, id);
            if (served.ok()) items = served->items;
            break;
          }
          case 2:
          case 3: {
            if (stage == 3 && p.use_cache) {
              const int64_t g0 = NowNs();
              std::optional<std::vector<uint32_t>> hit;
              {
                SpanScope inner("serve.CacheGet", id);
                hit = probe_cache.Get(user, k);
              }
              cache_get_us.push_back((NowNs() - g0) / 1e3);
              if (hit.has_value()) {
                items = std::move(*hit);
                break;
              }
            }
            const int64_t a0 = NowNs();
            std::shared_ptr<const serve::ServingState> state;
            {
              SpanScope inner("serve.Acquire", id);
              state = stack.manager->Acquire();
            }
            if (stage == 2) acquire_us.push_back((NowNs() - a0) / 1e3);
            SpanScope inner("serve.Execute", id);
            auto served = state->executor().Execute(user, k, id);
            if (served.ok()) {
              items = served->items;
              if (stage == 3 && p.use_cache) probe_cache.Put(user, k, items);
            }
            break;
          }
          case 4: {
            SpanScope inner("net.Query", id);
            auto result = client->Query(user, k, id);
            if (result.ok()) items = std::move(result->items);
            break;
          }
        }
      }
      stage_us[stage].push_back((NowNs() - t0) / 1e3);
      if (!oracle.Matches(user, items, p.reload_under_traffic)) {
        ++waterfall_mismatches;
      }
    }
  }
  report->Gate("waterfall_matches_oracle", waterfall_mismatches == 0,
               std::to_string(waterfall_mismatches) +
                   " waterfall answers differ from the oracle");
  double p50[5], p99[5];
  for (int stage = 0; stage < 5; ++stage) {
    std::sort(stage_us[stage].begin(), stage_us[stage].end());
    p50[stage] = Quantile(stage_us[stage], 0.5);
    p99[stage] = Quantile(stage_us[stage], 0.99);
  }
  report->Set("serve.topk_us.p50", p50[0], "us");
  report->Set("serve.topk_us.p99", p99[0], "us");
  report->Set("serve.execute_us.p50", p50[1], "us");
  std::sort(acquire_us.begin(), acquire_us.end());
  report->Set("serve.acquire_us.p99", Quantile(acquire_us, 0.99), "us");
  report->Set("waterfall.engine_us.p50", p50[0], "us");
  report->Set("waterfall.engine_us.p99", p99[0], "us");
  const char* const kAdded[] = {"executor", "acquire", "cache", "net"};
  for (int stage = 1; stage < 5; ++stage) {
    const std::string name =
        std::string("waterfall.") + kAdded[stage - 1] + "_added_us";
    report->Set(name + ".p50", p50[stage] - p50[stage - 1], "us");
    report->Set(name + ".p99", p99[stage] - p99[stage - 1], "us");
  }
  report->Set("waterfall.coverage", p50[4] / traced.query_p50_us, "ratio");
  report->Set("net.wire_added_us.p50",
              traced.query_p50_us - p50[1], "us");

  // Cache layer. Without a server cache, Get is timed on a probe cache
  // holding the stream's answers.
  if (!p.use_cache) {
    for (const uint32_t user : stream) {
      probe_cache.Put(user, k, pinned->engine().TopKForUser(user, k));
    }
    for (const uint32_t user : stream) {
      const int64_t g0 = NowNs();
      SpanScope span("serve.CacheGet");
      (void)probe_cache.Get(user, k);
      cache_get_us.push_back((NowNs() - g0) / 1e3);
    }
  }
  report->Set("serve.cache_get_us.p50", Median(cache_get_us), "us");
  serve::ResultCache::Stats cache_stats;
  if (stack.cache != nullptr) cache_stats = stack.cache->GetStats();
  const double lookups =
      static_cast<double>(cache_stats.hits + cache_stats.misses);
  report->Set("serve.cache_hit_ratio",
              lookups > 0 ? cache_stats.hits / lookups : 0.0, "ratio");
  report->Set("serve.cache_stale_hits",
              static_cast<double>(cache_stats.stale_hits), "count");

  // Per-user latency spread over all users (min of three passes per user,
  // so one preempted call does not pose as a slow user), and the
  // subnormal floats in the served factors.
  {
    SpanScope span("serve.user_spread");
    std::vector<double> best(users, std::numeric_limits<double>::infinity());
    for (int pass = 0; pass < 3; ++pass) {
      for (uint32_t user = 0; user < users; ++user) {
        const int64_t t0 = NowNs();
        (void)pinned->engine().TopKForUser(user, k);
        best[user] = std::min(best[user], (NowNs() - t0) / 1e3);
      }
    }
    const double max_us = *std::max_element(best.begin(), best.end());
    report->Set("serve.user_spread", max_us / Median(best), "ratio");
    const models::FrozenFactors& f = pinned->engine().snapshot().factors;
    report->Set("serve.subnormal_lanes",
                static_cast<double>(CountSubnormals(f.user_factors) +
                                    CountSubnormals(f.item_factors) +
                                    CountSubnormals(f.user_bias) +
                                    CountSubnormals(f.item_bias)),
                "count");
  }

  // Wire codec on the stream's frames: request encode, response decode.
  {
    SpanScope span("net.codec");
    std::vector<std::string> response_frames;
    for (const uint32_t user : stream) {
      net::QueryResponse response;
      response.items = pinned->engine().TopKForUser(user, k);
      for (const uint32_t item : response.items) {
        response.scores.push_back(
            pinned->engine().snapshot().Score(user, item));
      }
      response_frames.push_back(net::EncodeFrame(
          net::FrameType::kQueryReply, net::EncodeQueryResponse(response)));
    }
    size_t bytes = 0;
    int64_t t0 = NowNs();
    for (size_t i = 0; i < stream.size(); ++i) {
      net::QueryRequest request;
      request.trace_id = i + 1;
      request.user = stream[i];
      request.k = k;
      bytes += net::EncodeFrame(net::FrameType::kQuery,
                                net::EncodeQueryRequest(request))
                   .size();
    }
    report->Set("net.encode_us",
                (NowNs() - t0) / 1e3 / static_cast<double>(stream.size()),
                "us");
    bool decoded_ok = bytes > 0;
    t0 = NowNs();
    for (const std::string& bytes_in : response_frames) {
      net::Frame frame;
      auto used = net::TryDecodeFrame(bytes_in, &frame);
      auto response = net::DecodeQueryResponse(frame.payload);
      decoded_ok = decoded_ok && used.ok() && response.ok();
    }
    report->Set("net.decode_us",
                (NowNs() - t0) / 1e3 / static_cast<double>(stream.size()),
                "us");
    report->Gate("wire_codec_roundtrip", decoded_ok,
                 "every response frame decodes");
  }

  const std::vector<double> reload_us =
      FinishReloads(reloader.get(), stack.manager.get(), p, report);
  report->Set("serve.reload_us", Median(reload_us), "us");
  const serve::SnapshotManager::Stats manager_stats =
      stack.manager->GetStats();
  report->Set("serve.reloads_ok", static_cast<double>(manager_stats.reloads_ok),
              "count");
  report->Set("serve.reloads_rejected",
              static_cast<double>(manager_stats.reloads_rejected), "count");

  client.reset();  // closes the connection before Stop
  const net::NetServer::Stats stats = StopServing(&stack, report);
  GateReplies(tally, report);
  report->Set("net.bytes_per_request",
              static_cast<double>(stats.bytes_read + stats.bytes_written) /
                  static_cast<double>(std::max<uint64_t>(1, stats.requests)),
              "B");
  report->Set("net.shed", static_cast<double>(stats.shed), "count");
  report->Set("net.protocol_errors",
              static_cast<double>(stats.protocol_errors), "count");
}

void RunServe(const RunOptions& options, bool zipf_reload, Report* report) {
  // Set-up: data generation, snapshot A after `snapshot_epochs` epochs of
  // HOSR training, snapshot B one epoch further, both exported and saved.
  // Repeated; every repetition must write byte-identical snapshots.
  const uint32_t reps = options.trace ? 1 : options.setup_reps;
  std::vector<double> setup_s;
  std::unique_ptr<WorkloadData> data;
  std::unique_ptr<core::Hosr> model;
  std::vector<std::map<std::string, double>> epochs;
  std::string first_a, first_b;
  bool same = true;
  const std::string path_a = options.workdir + "/serve_a.snap";
  const std::string path_b = options.workdir + "/serve_b.snap";
  for (uint32_t rep = 0; rep < reps; ++rep) {
    const int64_t t0 = NowNs();
    auto rep_data = std::make_unique<WorkloadData>(
        MakeWorkloadData(options.scale, options.data_seed));
    auto rep_model =
        std::make_unique<core::Hosr>(rep_data->split.train,
                                     HosrConfig(options));
    models::BprTrainer trainer(rep_model.get(),
                               &rep_data->split.train.interactions,
                               TrainerConfig(options, HardwareThreads()));
    for (uint32_t e = 0; e <= options.snapshot_epochs; ++e) {
      if (e == options.snapshot_epochs) {
        auto snapshot = serve::BuildSnapshot(*rep_model);
        HOSR_CHECK(snapshot.ok()) << snapshot.status().ToString();
        HOSR_CHECK(serve::SaveSnapshot(*snapshot, path_a).ok());
      }
      epochs.push_back(TimedEpoch(&trainer, epochs.size() + 1));
    }
    auto snapshot = serve::BuildSnapshot(*rep_model);
    HOSR_CHECK(snapshot.ok()) << snapshot.status().ToString();
    HOSR_CHECK(serve::SaveSnapshot(*snapshot, path_b).ok());
    setup_s.push_back((NowNs() - t0) / 1e9);
    const std::string a = ReadFileBytes(path_a);
    const std::string b = ReadFileBytes(path_b);
    if (rep == 0) {
      first_a = a;
      first_b = b;
      data = std::move(rep_data);
      model = std::move(rep_model);
    } else {
      same = same && a == first_a && b == first_b;
    }
  }
  report->Gate("setup_deterministic",
               same && !first_a.empty() && first_a != first_b,
               std::to_string(reps) +
                   " set-ups wrote byte-identical snapshots A and B");
  std::fprintf(stderr, "dataset: %u users, %u items; snapshots %zu bytes\n",
               data->full.num_users(), data->full.num_items(),
               first_a.size());

  const ServeParams params{&options,
                           data.get(),
                           path_a,
                           path_b,
                           /*use_cache=*/zipf_reload,
                           zipf_reload ? options.zipf : 0.0,
                           /*reload_under_traffic=*/zipf_reload,
                           options.seconds};
  if (options.trace) {
    TrainLayerSweep(options, *data, MeanOf(epochs), model.get(), report);
    ServeLayerSweep(params, report);
    return;
  }
  // The serving workloads' training figures: the set-up's epochs and the
  // quality of the model behind snapshot B.
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("samples_per_s", BestSamplesPerS(epochs), "1/s");
  report->Set("recall_at_20", RecallAt20(model.get(), *data), "ratio");
  MeasureServing(params, report);
}

}  // namespace hosr::perfbench
