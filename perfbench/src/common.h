// Shared pieces of the repository benchmark: run options, the metric and
// gate record every workload fills, wall-clock helpers, latency
// percentiles, the in-memory span recorder of the traced run, and the
// seeded workload dataset.
#ifndef HOSR_PERFBENCH_COMMON_H_
#define HOSR_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/hosr.h"
#include "data/dataset.h"
#include "models/trainer.h"

namespace hosr::perfbench {

// A run: what the command line sets, then the benchmark's fixed settings.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    // scratch files (snapshots, training states)
  std::string trace_out;  // spans of a traced run
  double fixed_rate = 0;  // offered req/s of the latency phase (config.json)

  uint64_t data_seed = 1;      // the dataset does not follow --seed
  double scale = 0.2;          // YelpLike scale of the workload dataset
  double gate_scale = 0.03;    // dataset of the thread-identity gate
  uint32_t dim = 64;
  uint32_t batch = 512;
  float learning_rate = 0.001f;
  uint32_t recall_epochs = 3;    // recall_at_20 is taken after this epoch
  uint32_t setup_reps = 3;
  uint32_t snapshot_epochs = 2;  // epochs behind serving snapshot A
  uint32_t k = 20;
  int server_workers = 2;
  int client_connections = 2;
  double zipf = 0.9;
  double reload_period_s = 1.0;
};

// Steady-clock wall time; every rate and duration in the benchmark is
// derived from it, never from per-thread CPU time.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank quantile of an ascending vector; q in [0, 1].
double Quantile(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);

// The highest percentile with at least ten samples beyond it, capped at
// p99.9: the tail a run of `n` samples can still resolve.
double TailQuantileFor(size_t n);

// Name -> value with unit, plus the correctness gates of the run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  // Records a gate; a false `ok` makes the run incorrect.
  void Gate(const std::string& name, bool ok, const std::string& detail);
  bool correct() const;
  void AddAttempts(uint64_t attempted, uint64_t failed);
  // The final JSON line: correct/attempted/failed/metrics plus the host
  // fingerprint and gate details (run.py strips the extras).
  std::string ToJson(const std::string& fingerprint_json) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> values_;
  std::vector<std::string> gates_json_;
  bool all_gates_ok_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Spans recorded around calls into the library, in memory, written out
// when the run ends. Spans nest per thread; spans of one request share a
// trace id. Recording is off unless the run is traced.
class Spans {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index into the span list, -1 for a root
    uint64_t trace_id;
  };

  static Spans& Get();
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int64_t Begin(const char* name, uint64_t trace_id);
  void End(int64_t index);
  // Records a finished span with explicit times (e.g. from a request's
  // due time, which precedes the code that records it).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t trace_id);

  // Sum of self time (span minus the union of its children) per name, µs.
  std::map<std::string, double> SelfTimeUs() const;
  // Writes every span plus the per-name self time as JSON.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::deque<Span> spans_;
};

// RAII span; a no-op while recording is off.
class SpanScope {
 public:
  explicit SpanScope(const char* name, uint64_t trace_id = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int64_t index_ = -1;
  int64_t saved_parent_ = -1;
};

// The one synthetic YelpLike dataset of all workloads, with its 80/20
// split, generated from the configured data seed. The run seed drives
// everything else: model initialisation, BPR sampling, graph dropout and
// the request streams.
struct WorkloadData {
  data::Dataset full;
  data::Split split;
};
WorkloadData MakeWorkloadData(double scale, uint64_t data_seed);

// HOSR-3 with attention, tanh and graph dropout 0.2 at dimension `dim`.
core::Hosr::Config HosrConfig(const RunOptions& options);
models::TrainConfig TrainerConfig(const RunOptions& options,
                                  uint32_t train_threads);
uint32_t HardwareThreads();

std::string ReadFileBytes(const std::string& path);
double PeakRssMb();
// JSON of nproc, CPU model, kernel dispatch level and build type.
std::string HostFingerprintJson();

// Entry points of the workloads (train.cc, serve.cc). Every workload
// reports every end-to-end metric: train_hosr also serves the model it
// trained, and the serving workloads report the throughput and quality of
// the training their set-up ran.
void RunTrainHosr(const RunOptions& options, Report* report);
void RunServe(const RunOptions& options, bool zipf_reload, Report* report);

// Snapshot of the library counters the per-layer metrics difference.
std::map<std::string, double> ReadTrainCounters();
// Trains one epoch and returns its counter deltas plus wall_us, samples,
// batches and loss.
std::map<std::string, double> TimedEpoch(models::BprTrainer* trainer,
                                         uint64_t trace_id);
// Sampled triples per wall second of the fastest epoch: a VM's vCPU
// stalls only ever slow an epoch, so the least disturbed one measures the
// program.
double BestSamplesPerS(
    const std::vector<std::map<std::string, double>>& epochs);
std::map<std::string, double> MeanOf(
    const std::vector<std::map<std::string, double>>& epochs);
double RecallAt20(core::Hosr* model, const WorkloadData& data);

// Training-layer probes of a traced run. `per_epoch` holds the mean
// counter deltas (TimedEpoch) of the epochs the workload trained at nproc
// threads; `model` is stepped by the batch replays.
void TrainLayerSweep(const RunOptions& options, const WorkloadData& data,
                     const std::map<std::string, double>& per_epoch,
                     core::Hosr* model, Report* report);

// How a workload serves: snapshot A is published first; B is what reloads
// alternate with (it may be A itself).
struct ServeParams {
  const RunOptions* options;
  const WorkloadData* data;
  std::string snapshot_a;
  std::string snapshot_b;
  bool use_cache;
  double zipf;  // <= 0: uniform users
  bool reload_under_traffic;
  double seconds;
};
// The end-to-end serving metrics: latency at the fixed offered rate, the
// closed-loop capacity of the client connections, and the time to publish
// a snapshot.
void MeasureServing(const ServeParams& params, Report* report);
// The serving-layer probes of a traced run, ending in the waterfall.
void ServeLayerSweep(const ServeParams& params, Report* report);

}  // namespace hosr::perfbench

#endif  // HOSR_PERFBENCH_COMMON_H_
