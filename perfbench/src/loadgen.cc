#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "common.h"
#include "net/client.h"
#include "net/stream.h"
#include "util/logging.h"

namespace hosr::perfbench {

namespace {

// Sleeps to shortly before `due_ns`, then yields until it, so the send
// time does not inherit the scheduler's wake-up slack and the waiting
// client does not hold a core the server's workers need.
void WaitUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 80'000;
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
    std::this_thread::yield();
  }
}

std::vector<net::NetClient> ConnectClients(int port, int connections) {
  std::vector<net::NetClient> clients;
  for (int c = 0; c < connections; ++c) {
    auto client = net::NetClient::Connect("127.0.0.1", port);
    HOSR_CHECK(client.ok()) << client.status().ToString();
    clients.push_back(std::move(client).value());
  }
  return clients;
}

// Sends reply->user's query; fills in the send and reply times and the
// verdict on the answer, and records a gen.request span (due to reply) with
// a net.query child (send to reply) when spans are recorded.
void Send(net::NetClient* client, uint32_t k, uint64_t trace_id,
          const Verifier& verify, Reply* reply) {
  if (!client->connected() && !client->Reconnect().ok()) {
    reply->sent_ns = reply->done_ns = NowNs();
    return;
  }
  reply->sent_ns = NowNs();
  auto result = client->Query(reply->user, k, trace_id);
  reply->done_ns = NowNs();
  Spans& spans = Spans::Get();
  if (spans.enabled()) {
    const int64_t root = spans.Add("gen.request", reply->due_ns,
                                   reply->done_ns, -1, trace_id);
    spans.Add("net.query", reply->sent_ns, reply->done_ns, root, trace_id);
  }
  if (!result.ok()) {
    if (result.status().code() == util::StatusCode::kUnavailable ||
        result.status().code() == util::StatusCode::kIoError) {
      (void)client->Reconnect();
    }
    return;
  }
  reply->ok = true;
  reply->from_cache = result->served_from_cache;
  reply->degraded = result->degraded;
  reply->matches = verify(reply->user, result->items);
}

}  // namespace

std::vector<Arrival> PoissonSchedule(double rate, double seconds,
                                     uint32_t num_users, double zipf,
                                     util::Rng* rng) {
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng->UniformDouble()) / rate;
    if (t >= seconds) break;
    schedule.push_back(Arrival{static_cast<int64_t>(t * 1e9),
                               net::SampleZipfUser(rng, num_users, zipf)});
  }
  return schedule;
}

std::vector<Reply> RunOpenLoop(int port, const std::vector<Arrival>& schedule,
                               int connections, uint32_t k,
                               uint64_t trace_base, const Verifier& verify) {
  std::vector<net::NetClient> clients = ConnectClients(port, connections);
  std::vector<Reply> replies(schedule.size());
  std::atomic<size_t> next{0};
  const int64_t start_ns = NowNs() + 2'000'000;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::NetClient& client = clients[static_cast<size_t>(c)];
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= schedule.size()) break;
        Reply& reply = replies[i];
        reply.user = schedule[i].user;
        reply.due_ns = start_ns + schedule[i].due_ns;
        WaitUntil(reply.due_ns);
        Send(&client, k, trace_base + i, verify, &reply);
      }
    });
  }
  for (auto& t : threads) t.join();
  return replies;
}

std::vector<Reply> RunClosedLoop(int port, const std::vector<uint32_t>& users,
                                 int connections, uint32_t k, double seconds,
                                 uint64_t trace_base, const Verifier& verify) {
  std::vector<net::NetClient> clients = ConnectClients(port, connections);
  std::vector<std::vector<Reply>> per_connection(clients.size());
  std::atomic<size_t> next{0};
  const int64_t end_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < end_ns) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        Reply reply;
        reply.user = users[i % users.size()];
        reply.due_ns = NowNs();
        Send(&clients[c], k, trace_base + i, verify, &reply);
        per_connection[c].push_back(std::move(reply));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Reply> replies;
  for (auto& part : per_connection) {
    replies.insert(replies.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  return replies;
}

PhaseStats Summarize(const std::vector<Reply>& replies, double seconds) {
  PhaseStats stats;
  stats.sent = replies.size();
  stats.offered_rate =
      seconds > 0.0 ? static_cast<double>(replies.size()) / seconds : 0.0;
  std::vector<double> from_due;
  std::vector<double> query;
  std::vector<double> late;
  from_due.reserve(replies.size());
  for (const Reply& r : replies) {
    const bool good = r.ok && !r.degraded;
    good ? ++stats.ok : ++stats.failed;
    from_due.push_back(good ? (r.done_ns - r.due_ns) / 1e3
                            : std::numeric_limits<double>::infinity());
    if (r.ok) query.push_back((r.done_ns - r.sent_ns) / 1e3);
    late.push_back((r.sent_ns - r.due_ns) / 1e3);
  }
  std::sort(from_due.begin(), from_due.end());
  std::sort(query.begin(), query.end());
  std::sort(late.begin(), late.end());
  stats.p50_us = Quantile(from_due, 0.5);
  stats.p99_us = Quantile(from_due, 0.99);
  stats.tail_us = Quantile(from_due, TailQuantileFor(from_due.size()));
  stats.query_p50_us = Quantile(query, 0.5);
  stats.query_p99_us = Quantile(query, 0.99);
  stats.late_p99_us = Quantile(late, 0.99);
  return stats;
}

}  // namespace hosr::perfbench
