#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "data/synthetic.h"
#include "kernels/kernels.h"
#include "util/logging.h"
#include "util/random.h"

#ifndef HOSR_PERFBENCH_BUILD_TYPE
#define HOSR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace hosr::perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Full precision: results are compared run against run.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

thread_local int64_t current_span = -1;

}  // namespace

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

double TailQuantileFor(size_t n) {
  if (n == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.999);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  values_[name] = Metric{value, unit};
}

void Report::Gate(const std::string& name, bool ok,
                  const std::string& detail) {
  all_gates_ok_ = all_gates_ok_ && ok;
  gates_json_.push_back("{\"gate\": \"" + JsonEscape(name) +
                        "\", \"ok\": " + (ok ? "true" : "false") +
                        ", \"detail\": \"" + JsonEscape(detail) + "\"}");
  std::fprintf(stderr, "gate %-28s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

bool Report::correct() const {
  return all_gates_ok_ && !gates_json_.empty();
}

void Report::AddAttempts(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::ToJson(const std::string& fingerprint_json) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : values_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << Num(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}, \"fingerprint\": " << fingerprint_json << ", \"gates\": [";
  for (size_t i = 0; i < gates_json_.size(); ++i) {
    out << (i ? ", " : "") << gates_json_[i];
  }
  out << "]}";
  return out.str();
}

Spans& Spans::Get() {
  static Spans* spans = new Spans();
  return *spans;
}

int64_t Spans::Begin(const char* name, uint64_t trace_id) {
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, start, current_span, trace_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Spans::End(int64_t index) {
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

int64_t Spans::Add(const char* name, int64_t start_ns, int64_t end_ns,
                   int64_t parent, uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, trace_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> Spans::SelfTimeUs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::map<std::string, double> self_us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t run_begin = 0;
    int64_t run_end = -1;
    for (const auto& [b0, e0] : kids) {
      const int64_t b = std::max(b0, s.start_ns);
      const int64_t e = std::min(e0, s.end_ns);
      if (e <= b) continue;
      if (b > run_end) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    self_us[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) /
                       1e3;
  }
  return self_us;
}

bool Spans::Write(const std::string& path) const {
  const std::map<std::string, double> self_us = SelfTimeUs();
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"self_time_us\": {";
  bool first = true;
  for (const auto& [name, us] : self_us) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << Num(us);
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"start_us\": " << Num((s.start_ns - origin) / 1e3)
        << ", \"end_us\": " << Num((s.end_ns - origin) / 1e3)
        << ", \"parent\": " << s.parent << ", \"trace_id\": " << s.trace_id
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

SpanScope::SpanScope(const char* name, uint64_t trace_id) {
  Spans& spans = Spans::Get();
  if (!spans.enabled()) return;
  index_ = spans.Begin(name, trace_id);
  saved_parent_ = current_span;
  current_span = index_;
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  Spans::Get().End(index_);
  current_span = saved_parent_;
}

WorkloadData MakeWorkloadData(double scale, uint64_t data_seed) {
  data::SyntheticConfig config = data::SyntheticConfig::YelpLike(scale);
  config.seed ^= data_seed * 0x9e3779b97f4a7c15ULL;
  auto dataset = data::GenerateSynthetic(config);
  HOSR_CHECK(dataset.ok()) << dataset.status().ToString();
  util::Rng split_rng(data_seed ^ 0x243f6a8885a308d3ULL);
  auto split = data::SplitDataset(*dataset, 0.2, &split_rng);
  HOSR_CHECK(split.ok()) << split.status().ToString();
  return WorkloadData{std::move(dataset).value(), std::move(split).value()};
}

core::Hosr::Config HosrConfig(const RunOptions& options) {
  core::Hosr::Config config;
  config.embedding_dim = options.dim;
  config.num_layers = 3;
  config.aggregation = core::LayerAggregation::kAttention;
  config.activation = core::Activation::kTanh;
  config.graph_dropout = 0.2f;
  config.seed = options.seed;
  return config;
}

models::TrainConfig TrainerConfig(const RunOptions& options,
                                  uint32_t train_threads) {
  models::TrainConfig config;
  config.epochs = 1000;  // epochs are stepped one RunEpoch at a time
  config.batch_size = options.batch;
  config.learning_rate = options.learning_rate;
  config.weight_decay = 1e-5f;
  config.optimizer = "rmsprop";
  config.seed = options.seed;
  config.train_threads = train_threads;
  return config;
}

uint32_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::string HostFingerprintJson() {
  std::string cpu_model = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  return "{\"nproc\": " + std::to_string(HardwareThreads()) +
         ", \"cpu_model\": \"" + JsonEscape(cpu_model) +
         "\", \"dispatch\": \"" + kernels::Active().name +
         "\", \"build_type\": \"" HOSR_PERFBENCH_BUILD_TYPE "\"}";
}

}  // namespace hosr::perfbench
