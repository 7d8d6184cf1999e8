// hosr_perfbench: one run of one benchmark workload.
//
//   hosr_perfbench --workload=train_hosr --seed=1 --seconds=10 --trace=0
//       --fixed_rate=8000 --workdir=DIR [--trace_out=FILE]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: correct, attempted, failed, metrics (name -> value and unit),
// the host fingerprint and every correctness gate. Exits 1 when a gate
// fails. perfbench/run.py builds and drives it.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "util/flags.h"
#include "util/logging.h"

namespace {

// Keeps every hardware thread busy for `seconds` before anything is timed.
// On a VM whose vCPUs sat idle for a few seconds, the first second of work
// ran at about a quarter of the speed of the seconds after it (measured on
// a 4-vCPU KVM guest), which would land in whatever is timed first.
void WarmCpus(double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < hosr::perfbench::HardwareThreads(); ++t) {
    threads.emplace_back([&stop] {
      volatile double x = 1.0;
      while (!stop.load(std::memory_order_relaxed)) x = x * 1.0000001 + 1e-9;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hosr;
  using namespace hosr::perfbench;
  const util::Flags flags = util::Flags::Parse(argc, argv);
  RunOptions o;
  o.workload = flags.GetString("workload", "");
  o.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  o.seconds = flags.GetDouble("seconds", o.seconds);
  o.trace = flags.GetInt("trace", 0) != 0;
  o.workdir = flags.GetString("workdir", "");
  o.trace_out = flags.GetString("trace_out", "");
  o.fixed_rate = flags.GetDouble("fixed_rate", o.fixed_rate);
  if (o.workdir.empty() || o.seconds <= 0.0 || o.fixed_rate <= 0.0) {
    std::fprintf(stderr, "hosr_perfbench: need --workdir, --seconds > 0 "
                         "and --fixed_rate > 0\n");
    return 2;
  }
  std::filesystem::create_directories(o.workdir);
  Spans::Get().set_enabled(o.trace);
  WarmCpus(1.5);

  Report report;
  if (o.workload == "train_hosr") {
    RunTrainHosr(o, &report);
  } else if (o.workload == "serve_uniform") {
    RunServe(o, /*zipf_reload=*/false, &report);
  } else if (o.workload == "serve_zipf_reload") {
    RunServe(o, /*zipf_reload=*/true, &report);
  } else {
    std::fprintf(stderr, "hosr_perfbench: unknown --workload=%s\n",
                 o.workload.c_str());
    return 2;
  }
  if (!o.trace) report.Set("peak_rss_mb", PeakRssMb(), "MB");

  if (o.trace && !o.trace_out.empty()) {
    if (!Spans::Get().Write(o.trace_out)) {
      report.Gate("trace_written", false, "cannot write " + o.trace_out);
    }
  }
  std::printf("%s\n", report.ToJson(HostFingerprintJson()).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
