#include "models/trainer.h"

#include <algorithm>
#include <condition_variable>
#include <iterator>
#include <limits>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "autograd/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hosr::models {

namespace {

constexpr uint32_t kTrainStateMagic = 0x4854434b;     // "HTCK"
// v2 appends sparse_steps to the config block (v1 states load iff the
// trainer runs with sparse_steps off — dense steps are what v1 recorded).
constexpr uint32_t kTrainStateVersion = 2;
constexpr uint32_t kTrainStateMinVersion = 1;
constexpr uint32_t kEndianMarker = 0x01020304;
constexpr uint32_t kTrainStateSentinel = 0x4b435448;  // magic reversed

// Per-phase timeline counters: cumulative microseconds per training phase,
// turned into windowed rates by the timeseries recorder (/timeseriez) and
// into per-epoch utilization gauges by RunEpoch. Counters are always live
// (unlike spans, which need obs::SetEnabled), so the timeline exists even
// when tracing is off; the cost is two NowNanos() calls per phase.
class PhaseTimer {
 public:
  explicit PhaseTimer(obs::Counter& counter)
      : counter_(counter), begin_ns_(obs::NowNanos()) {}
  ~PhaseTimer() {
    counter_.Increment(
        static_cast<uint64_t>((obs::NowNanos() - begin_ns_) / 1000));
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::Counter& counter_;
  int64_t begin_ns_;
};

#define HOSR_PHASE_US(name)                                     \
  PhaseTimer HOSR_OBS_CONCAT_(hosr_phase_timer_at_line_,        \
                              __LINE__)(HOSR_COUNTER(name))

// Every phase counter the per-epoch utilization gauges cover: sample
// (prefetcher waits on the consumer side) plus the engine's five phases.
constexpr const char* kPhaseCounterNames[] = {
    "trainer/sample_us",         "trainer/shared_forward_us",
    "trainer/slice_backward_us", "trainer/reduce_us",
    "trainer/seeded_backward_us", "trainer/step_us",
};

// "trainer/<phase>_us" -> "trainer/<phase>_util".
std::string PhaseUtilName(std::string_view counter_name) {
  std::string name(counter_name.substr(0, counter_name.size() - 3));
  name.append("_util");
  return name;
}

template <typename T>
void WritePod(std::ostream* out, const T& v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadPod(std::istream* in, T* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(*in);
}

void WriteString(std::ostream* out, const std::string& s) {
  WritePod<uint64_t>(out, s.size());
  out->write(s.data(), static_cast<std::streamsize>(s.size()));
}

util::StatusOr<std::string> ReadString(std::istream* in) {
  uint64_t len = 0;
  if (!ReadPod(in, &len) || len > 4096) {
    return util::Status::DataLoss("bad string length in training state");
  }
  std::string s(len, '\0');
  in->read(s.data(), static_cast<std::streamsize>(len));
  if (!*in) return util::Status::DataLoss("truncated string in training state");
  return s;
}

void WriteRngState(std::ostream* out, const util::RngState& state) {
  for (const uint64_t word : state.s) WritePod(out, word);
  WritePod<uint8_t>(out, state.has_spare_gaussian ? 1 : 0);
  WritePod(out, state.spare_gaussian);
}

util::StatusOr<util::RngState> ReadRngState(std::istream* in) {
  util::RngState state;
  for (uint64_t& word : state.s) {
    if (!ReadPod(in, &word)) {
      return util::Status::DataLoss("truncated RNG state");
    }
  }
  uint8_t has_spare = 0;
  if (!ReadPod(in, &has_spare) || !ReadPod(in, &state.spare_gaussian)) {
    return util::Status::DataLoss("truncated RNG state");
  }
  if (has_spare > 1) {
    return util::Status::DataLoss("bad RNG spare flag");
  }
  state.has_spare_gaussian = has_spare == 1;
  if (state.s[0] == 0 && state.s[1] == 0 && state.s[2] == 0 &&
      state.s[3] == 0) {
    return util::Status::DataLoss("all-zero RNG state");
  }
  return state;
}

// The config fields a checkpoint bakes in: restoring under a different
// config would silently train a different run, so they are written out and
// compared verbatim on load. train_threads / slice_size are
// deliberately ABSENT: the engine's trajectory is bit-identical across all
// of them (trainer_parallel_test), so checkpoints move freely between
// thread counts. sparse_steps changes the trajectory (lazy weight decay)
// and is part of the identity.
void WriteConfig(std::ostream* out, const TrainConfig& config) {
  WritePod(out, config.epochs);
  WritePod(out, config.batch_size);
  WritePod(out, config.learning_rate);
  WritePod(out, config.weight_decay);
  WritePod(out, config.seed);
  WritePod<uint32_t>(out,
                     static_cast<uint32_t>(config.negative_sampling));
  WriteString(out, config.optimizer);
  WritePod<uint8_t>(out, config.sparse_steps ? 1 : 0);
}

util::Status CheckConfig(std::istream* in, uint32_t version,
                         const TrainConfig& config) {
  TrainConfig saved;
  uint32_t negative_sampling = 0;
  if (!ReadPod(in, &saved.epochs) || !ReadPod(in, &saved.batch_size) ||
      !ReadPod(in, &saved.learning_rate) ||
      !ReadPod(in, &saved.weight_decay) || !ReadPod(in, &saved.seed) ||
      !ReadPod(in, &negative_sampling)) {
    return util::Status::DataLoss("truncated training config");
  }
  HOSR_ASSIGN_OR_RETURN(saved.optimizer, ReadString(in));
  // v1 predates sparse steps: those checkpoints recorded dense-step runs.
  uint8_t sparse_steps = 0;
  if (version >= 2) {
    if (!ReadPod(in, &sparse_steps) || sparse_steps > 1) {
      return util::Status::DataLoss("bad sparse_steps flag");
    }
  }
  if (saved.epochs != config.epochs ||
      saved.batch_size != config.batch_size ||
      saved.learning_rate != config.learning_rate ||
      saved.weight_decay != config.weight_decay ||
      saved.seed != config.seed ||
      negative_sampling !=
          static_cast<uint32_t>(config.negative_sampling) ||
      saved.optimizer != config.optimizer ||
      (sparse_steps == 1) != config.sparse_steps) {
    return util::Status::FailedPrecondition(
        "training state was written under a different TrainConfig");
  }
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// Worker team for the parallel engine.
//
// Deliberately NOT util::ThreadPool::Global(): slice bodies run tensor ops
// that may themselves ParallelFor into the global pool, and nesting its
// Wait() can deadlock. All shared state here — the claim cursor included —
// sits behind one mutex: slice/shard tasks are far coarser than a lock
// round-trip, and it keeps the team trivially clean under TSan.
// ---------------------------------------------------------------------------
class WorkerTeam {
 public:
  explicit WorkerTeam(size_t workers) {
    const size_t helpers = workers > 1 ? workers - 1 : 0;
    threads_.reserve(helpers);
    for (size_t i = 0; i < helpers; ++i) {
      threads_.emplace_back([this] { HelperLoop(); });
    }
  }

  ~WorkerTeam() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  size_t workers() const { return threads_.size() + 1; }

  // Runs body(0 .. num_tasks-1) across the helpers and the calling thread;
  // returns once every task has finished. Execution order is unspecified:
  // the engine keys all work on the task index, never on schedule.
  void Run(size_t num_tasks, const std::function<void(size_t)>& body) {
    if (num_tasks == 0) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      body_ = &body;
      num_tasks_ = num_tasks;
      next_task_ = 0;
      completed_ = 0;
      ++generation_;
    }
    work_ready_.notify_all();
    DrainTasks();
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return completed_ == num_tasks_; });
    body_ = nullptr;
  }

 private:
  void DrainTasks() {
    while (true) {
      size_t task = 0;
      const std::function<void(size_t)>* body = nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (body_ == nullptr || next_task_ >= num_tasks_) return;
        task = next_task_++;
        body = body_;
      }
      (*body)(task);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (++completed_ == num_tasks_) all_done_.notify_all();
      }
    }
  }

  void HelperLoop() {
    uint64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_ready_.wait(
            lock, [this, seen] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
      }
      // A helper that wakes late simply finds the claim cursor exhausted
      // (or already helps the next generation) — both are harmless.
      DrainTasks();
    }
  }

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  const std::function<void(size_t)>* body_ = nullptr;
  size_t num_tasks_ = 0;
  size_t next_task_ = 0;
  size_t completed_ = 0;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// The training engine — the one training loop, for every model and worker
// count (docs/PERFORMANCE.md "Parallel training").
//
// Per batch: the model builds its batch-shared forward prefix once, workers
// build + backward one slice tape each (sparse leaves route gathered row
// gradients into SparseSink segments instead of dense grads), and a sharded
// reducer replays the accumulation sequence of the monolithic tape — the
// single-slice loss RankingModel::BuildLoss builds on one tape:
//
//   * sinks reduce in REVERSE creation order — the order the monolithic
//     reverse sweep reaches their leaves;
//   * within a sink, segments fold in (reverse op) x (slice ascending) x
//     (scan) order — exactly the monolithic scatter-add visit sequence,
//     since slices partition the batch contiguously in order;
//   * parameter sinks stage per-row (zero-init, then add — matching the
//     monolithic "0 + c1" first touch) and then transfer each touched row
//     into param->grad with one add per element, as the monolithic leaf
//     transfer would. Untouched rows skip the leaf transfer's "+0.0" —
//     observable only if a gradient held -0.0, which LogSigmoid's backward
//     cannot produce without exp overflow;
//   * shared-forward sinks fold straight into a zero-initialized seed
//     matrix — the seed IS the monolithic interior node's gradient — which
//     then resumes the shared tape via BackwardSeeded.
//
// Every target row is folded and transferred entirely within one row-range
// shard, so neither the shard count nor the worker count can affect a
// single bit of the result. That is the whole determinism argument; the
// rest is bookkeeping. A model whose shared forward sets SharedForward::loss
// (NCF, NSCR) has no slices: the engine backpropagates the shared tape.
// ---------------------------------------------------------------------------
class ParallelEngine {
 public:
  ParallelEngine(RankingModel* model, optim::Optimizer* optimizer,
                 const TrainConfig& config, size_t workers)
      : model_(model),
        optimizer_(optimizer),
        config_(config),
        sparse_mode_(config.sparse_steps),
        team_(workers) {
    autograd::ParamStore* params = model_->params();
    for (size_t i = 0; i < params->size(); ++i) {
      param_index_[params->at(i)] = i;
    }
    param_step_stamp_.resize(params->size());
    shard_touched_.resize(team_.workers());
    for (auto& per_param : shard_touched_) per_param.resize(params->size());
  }

  // Trains one batch; returns the batch loss (slice losses summed in slice
  // order — may differ from a single-tape Mean in the last ulp, which is
  // why stats report it but checkpoints never contain it).
  double TrainBatch(const data::BprBatch& batch, util::Rng* rng) {
    autograd::ParamStore* params = model_->params();

    shared_tape_.Reset();
    SharedForward shared(&shared_tape_);
    {
      HOSR_TRACE_SPAN("trainer/shared_forward");
      HOSR_PHASE_US("trainer/shared_forward_us");
      model_->BuildSharedForward(&shared, batch, rng);
    }

    if (!sparse_mode_) params->ZeroGrad();
    for (auto& per_param : shard_touched_) {
      for (auto& rows : per_param) rows.clear();
    }

    double batch_loss = 0.0;
    bool seeded = false;
    if (!shared.loss.has_value()) {
      batch_loss = BackwardSlices(batch, shared, &seeded);
    }
    {
      HOSR_TRACE_SPAN("trainer/seeded_backward");
      HOSR_PHASE_US("trainer/seeded_backward_us");
      if (shared.loss.has_value()) {
        // The model's whole loss lives on the shared tape: no slices.
        shared_tape_.Backward(*shared.loss);
        batch_loss = shared.loss->value()(0, 0);
      } else if (seeded) {
        shared_tape_.BackwardSeeded();
      }
    }

    {
      HOSR_TRACE_SPAN("trainer/step");
      HOSR_PHASE_US("trainer/step_us");
      if (sparse_mode_) {
        const size_t plan_rows = BuildPlan(shared_tape_);
        HOSR_COUNTER("trainer/sparse_rows").Increment(plan_rows);
        optimizer_->StepRows(params, plan_);
        RezeroTouched(params);
      } else {
        optimizer_->Step(params);
      }
    }
    return batch_loss;
  }

 private:
  // Builds + backpropagates one slice tape per worker task and reduces
  // their sinks into the parameter grads and the seeded gradients of the
  // shared outputs (setting `seeded` if there are any). Returns the batch
  // loss.
  double BackwardSlices(const data::BprBatch& batch,
                        const SharedForward& shared, bool* seeded) {
    const size_t slice_size = config_.slice_size;
    const size_t num_slices = (batch.size() + slice_size - 1) / slice_size;
    slice_tapes_.resize(num_slices);
    slice_losses_.assign(num_slices, 0.0f);
    {
      HOSR_TRACE_SPAN("trainer/slice_backward");
      HOSR_PHASE_US("trainer/slice_backward_us");
      team_.Run(num_slices, [&](size_t s) {
        const size_t begin = s * slice_size;
        const size_t end = std::min(batch.size(), begin + slice_size);
        std::unique_ptr<autograd::Tape>& tape = slice_tapes_[s];
        if (tape == nullptr) tape = std::make_unique<autograd::Tape>();
        tape->Reset();
        autograd::Value loss =
            model_->BuildLossSlice(tape.get(), shared, batch, begin, end);
        // Slice contract: every parameter a slice reaches must go through
        // a sparse leaf — a dense Param leaf would race on param->grad
        // across workers and break the ordered reduction.
        HOSR_CHECK(tape->param_leaves().empty())
            << model_->name() << " slice tape has dense parameter leaves";
        tape->Backward(loss);
        slice_losses_[s] = loss.value()(0, 0);
      });
    }

    const auto& sinks = slice_tapes_[0]->sparse_sinks();
    CheckSinkStructure(sinks);
    EnsureTargets(sinks, shared);

    // The shared outputs' gradients, for the sinks that reach them.
    std::vector<tensor::Matrix*> seeds(shared.outputs.size(), nullptr);
    for (const Target& t : targets_) {
      if (t.param == nullptr && seeds[t.shared_key] == nullptr) {
        seeds[t.shared_key] =
            shared.tape->SeedGrad(shared.outputs[t.shared_key]);
        *seeded = true;
      }
    }

    {
      HOSR_TRACE_SPAN("trainer/reduce");
      HOSR_PHASE_US("trainer/reduce_us");
      const uint32_t num_sinks = static_cast<uint32_t>(targets_.size());
      const uint32_t stamp_base = NextStampBlock(num_sinks + 1);
      const size_t num_shards = team_.workers();
      team_.Run(num_shards, [&](size_t shard) {
        ReduceShard(shard, num_shards, stamp_base, seeds);
      });
    }

    double batch_loss = 0.0;
    for (const float l : slice_losses_) batch_loss += l;
    return batch_loss;
  }

  // One reduction destination per sink (structure is stable across batches
  // for a given model; rebuilt if it ever changes).
  struct Target {
    autograd::Param* param = nullptr;
    int shared_key = -1;
    size_t param_index = 0;
    size_t rows = 0;
    size_t cols = 0;
    tensor::Matrix staging;            // param targets: per-row fold buffer
    std::vector<uint32_t> fold_stamp;  // per-row first-touch marker
    size_t num_ops = 0;
  };

  void CheckSinkStructure(
      const std::vector<std::unique_ptr<autograd::SparseSink>>& sinks) {
    for (size_t s = 1; s < slice_tapes_.size(); ++s) {
      const auto& other = slice_tapes_[s]->sparse_sinks();
      HOSR_CHECK(other.size() == sinks.size())
          << "slice tapes disagree on sparse sink count";
      for (size_t k = 0; k < sinks.size(); ++k) {
        HOSR_CHECK(other[k]->param == sinks[k]->param &&
                   other[k]->shared_key == sinks[k]->shared_key &&
                   other[k]->cols == sinks[k]->cols &&
                   other[k]->ops.size() == sinks[k]->ops.size())
            << "slice tapes disagree on sparse sink structure";
      }
    }
  }

  void EnsureTargets(
      const std::vector<std::unique_ptr<autograd::SparseSink>>& sinks,
      const SharedForward& shared) {
    bool match = targets_.size() == sinks.size();
    for (size_t k = 0; match && k < sinks.size(); ++k) {
      const Target& t = targets_[k];
      const size_t rows =
          sinks[k]->param != nullptr
              ? sinks[k]->param->value.rows()
              : shared.outputs[sinks[k]->shared_key].rows();
      match = t.param == sinks[k]->param &&
              t.shared_key == sinks[k]->shared_key &&
              t.cols == sinks[k]->cols && t.rows == rows &&
              t.num_ops == sinks[k]->ops.size();
    }
    if (match) return;
    targets_.clear();
    targets_.resize(sinks.size());
    for (size_t k = 0; k < sinks.size(); ++k) {
      Target& t = targets_[k];
      t.param = sinks[k]->param;
      t.shared_key = sinks[k]->shared_key;
      t.cols = sinks[k]->cols;
      t.num_ops = sinks[k]->ops.size();
      if (t.param != nullptr) {
        t.rows = t.param->value.rows();
        const auto it = param_index_.find(t.param);
        HOSR_CHECK(it != param_index_.end())
            << "sparse sink targets a parameter outside the model's store";
        t.param_index = it->second;
        t.staging = tensor::Matrix(t.rows, t.cols);
        t.fold_stamp.assign(t.rows, 0);
        if (param_step_stamp_[t.param_index].empty()) {
          param_step_stamp_[t.param_index].assign(t.rows, 0);
        }
      } else {
        HOSR_CHECK(t.shared_key >= 0 &&
                   static_cast<size_t>(t.shared_key) < shared.outputs.size())
            << "sparse sink references shared output " << t.shared_key;
        t.rows = shared.outputs[t.shared_key].rows();
        HOSR_CHECK(shared.outputs[t.shared_key].cols() == t.cols);
      }
    }
  }

  // Fresh block of `count` stamp values, never colliding with what any
  // stamp array currently holds (arrays reset on the rare wraparound).
  uint32_t NextStampBlock(uint32_t count) {
    if (stamp_counter_ >= std::numeric_limits<uint32_t>::max() - count) {
      for (Target& t : targets_) {
        std::fill(t.fold_stamp.begin(), t.fold_stamp.end(), 0);
      }
      for (auto& stamps : param_step_stamp_) {
        std::fill(stamps.begin(), stamps.end(), 0);
      }
      stamp_counter_ = 0;
    }
    stamp_counter_ += count;
    return stamp_counter_ - count + 1;
  }

  void ReduceShard(size_t shard, size_t num_shards, uint32_t stamp_base,
                   const std::vector<tensor::Matrix*>& seeds) {
    const uint32_t step_stamp =
        stamp_base + static_cast<uint32_t>(targets_.size());
    for (size_t k = targets_.size(); k-- > 0;) {
      Target& target = targets_[k];
      const size_t lo = target.rows * shard / num_shards;
      const size_t hi = target.rows * (shard + 1) / num_shards;
      if (lo == hi) continue;
      if (target.param != nullptr) {
        ReduceParamSink(k, &target, lo, hi,
                        stamp_base + static_cast<uint32_t>(k), step_stamp,
                        shard);
      } else {
        ReduceSharedSink(k, target, lo, hi, seeds[target.shared_key]);
      }
    }
  }

  void ReduceParamSink(size_t k, Target* target, size_t lo, size_t hi,
                       uint32_t stamp, uint32_t step_stamp, size_t shard) {
    const size_t cols = target->cols;
    std::vector<uint32_t> touched;
    for (size_t op = target->num_ops; op-- > 0;) {
      for (const auto& tape : slice_tapes_) {
        const autograd::SparseSink::OpSegment& seg =
            tape->sparse_sinks()[k]->ops[op];
        const float* grads = seg.grads.data();
        for (size_t i = 0; i < seg.rows.size(); ++i) {
          const uint32_t r = seg.rows[i];
          if (r < lo || r >= hi) continue;
          float* dst = target->staging.data() + r * cols;
          if (target->fold_stamp[r] != stamp) {
            target->fold_stamp[r] = stamp;
            touched.push_back(r);
            std::fill(dst, dst + cols, 0.0f);
          }
          const float* src = grads + i * cols;
          for (size_t c = 0; c < cols; ++c) dst[c] += src[c];
        }
      }
    }
    autograd::Param* p = target->param;
    std::vector<uint32_t>& step_stamps = param_step_stamp_[target->param_index];
    std::vector<uint32_t>& plan_rows =
        shard_touched_[shard][target->param_index];
    for (const uint32_t r : touched) {
      const float* src = target->staging.data() + r * cols;
      float* dst = p->grad.data() + r * cols;
      for (size_t c = 0; c < cols; ++c) dst[c] += src[c];
      if (sparse_mode_ && step_stamps[r] != step_stamp) {
        step_stamps[r] = step_stamp;
        plan_rows.push_back(r);
      }
    }
  }

  void ReduceSharedSink(size_t k, const Target& target, size_t lo, size_t hi,
                        tensor::Matrix* seed) {
    const size_t cols = target.cols;
    for (size_t op = target.num_ops; op-- > 0;) {
      for (const auto& tape : slice_tapes_) {
        const autograd::SparseSink::OpSegment& seg =
            tape->sparse_sinks()[k]->ops[op];
        const float* grads = seg.grads.data();
        for (size_t i = 0; i < seg.rows.size(); ++i) {
          const uint32_t r = seg.rows[i];
          if (r < lo || r >= hi) continue;
          float* dst = seed->data() + r * cols;
          const float* src = grads + i * cols;
          for (size_t c = 0; c < cols; ++c) dst[c] += src[c];
        }
      }
    }
  }

  // Assembles the StepRows plan: dense RowSets for the shared tape's dense
  // leaves (their grads are full matrices from BackwardSeeded), sorted
  // unique row lists for sink-touched embeddings, skip for the rest.
  // Returns the number of sparse rows planned.
  size_t BuildPlan(const autograd::Tape& shared_tape) {
    autograd::ParamStore* params = model_->params();
    plan_.clear();
    plan_.resize(params->size());
    for (autograd::Param* p : shared_tape.param_leaves()) {
      plan_[param_index_.at(p)].dense = true;
    }
    size_t total_rows = 0;
    for (size_t i = 0; i < plan_.size(); ++i) {
      std::vector<uint32_t>& rows = plan_[i].rows;
      for (const auto& per_param : shard_touched_) {
        rows.insert(rows.end(), per_param[i].begin(), per_param[i].end());
      }
      std::sort(rows.begin(), rows.end());
      if (!plan_[i].dense) total_rows += rows.size();
    }
    return total_rows;
  }

  // Re-zeroes exactly the gradients this batch populated, so the next
  // batch starts clean without a dense ZeroGrad sweep.
  void RezeroTouched(autograd::ParamStore* params) {
    for (size_t i = 0; i < plan_.size(); ++i) {
      autograd::Param* p = params->at(i);
      if (plan_[i].dense) {
        p->grad.SetZero();
        continue;
      }
      const size_t cols = p->grad.cols();
      for (const uint32_t r : plan_[i].rows) {
        float* g = p->grad.data() + r * cols;
        std::fill(g, g + cols, 0.0f);
      }
    }
  }

  RankingModel* model_;
  optim::Optimizer* optimizer_;
  const TrainConfig& config_;
  const bool sparse_mode_;
  WorkerTeam team_;
  // Kept across batches: each Reset returns the last batch's buffers to
  // the tape's free list, so steady-state batches allocate no matrices.
  autograd::Tape shared_tape_;
  std::unordered_map<autograd::Param*, size_t> param_index_;
  std::vector<std::unique_ptr<autograd::Tape>> slice_tapes_;
  std::vector<float> slice_losses_;
  std::vector<Target> targets_;
  uint32_t stamp_counter_ = 0;
  // Per-parameter per-row "already in this batch's plan" marker.
  std::vector<std::vector<uint32_t>> param_step_stamp_;
  // [shard][param] -> rows that shard transferred this batch.
  std::vector<std::vector<std::vector<uint32_t>>> shard_touched_;
  std::vector<optim::RowSet> plan_;
};

}  // namespace

util::Status TrainConfig::Validate() const {
  if (epochs == 0) return util::Status::InvalidArgument("epochs must be > 0");
  if (batch_size == 0) {
    return util::Status::InvalidArgument("batch_size must be > 0");
  }
  if (learning_rate <= 0.0f) {
    return util::Status::InvalidArgument("learning_rate must be > 0");
  }
  if (weight_decay < 0.0f) {
    return util::Status::InvalidArgument("weight_decay must be >= 0");
  }
  if (train_threads > kMaxTrainThreads) {
    return util::Status::InvalidArgument(util::StrFormat(
        "train_threads must be <= %u (0 = hardware)", kMaxTrainThreads));
  }
  if (slice_size == 0) {
    return util::Status::InvalidArgument("slice_size must be > 0");
  }
  return util::Status::Ok();
}

BprTrainer::BprTrainer(RankingModel* model,
                       const data::InteractionMatrix* train,
                       const TrainConfig& config)
    : model_(model),
      train_(train),
      config_(config),
      sampler_(train, config.seed ^ 0xb5297a4d3f84d5a5ULL,
               config.negative_sampling),
      optimizer_(optim::MakeOptimizer(config.optimizer, config.learning_rate,
                                      config.weight_decay)),
      rng_(config.seed) {
  HOSR_CHECK(config.Validate().ok()) << config.Validate().ToString();
}

EpochStats BprTrainer::RunEpoch() {
  HOSR_TRACE_SPAN("trainer/epoch");
  util::WallTimer timer;
  model_->OnEpochBegin(epoch_, &rng_);

  // One epoch = enough batches to cover every observed interaction once in
  // expectation (the standard BPR protocol).
  const size_t num_batches = std::max<size_t>(
      1, (sampler_.num_positives() + config_.batch_size - 1) /
             config_.batch_size);
  // The prefetcher draws exactly this epoch's batches in order, so the
  // sampler's RNG ends the epoch in the same state as synchronous sampling.
  data::BatchPrefetcher prefetcher(&sampler_, config_.batch_size,
                                   num_batches);

  // Phase-counter checkpoint: the deltas across this epoch become the
  // per-epoch utilization gauges below. Registry lookups (not the caching
  // macros) because the names vary per loop iteration.
  constexpr size_t kNumPhases = std::size(kPhaseCounterNames);
  uint64_t phase_us_before[kNumPhases];
  for (size_t i = 0; i < kNumPhases; ++i) {
    phase_us_before[i] =
        obs::Registry::Global().GetCounter(kPhaseCounterNames[i])->Get();
  }
  const double stall_us_before =
      obs::Registry::Global().GetHistogram("sampler/prefetch_stall_us")->Sum();

  EpochStats stats;
  stats.epoch = epoch_;
  stats.batches = num_batches;
  // train_threads == 0 resolves to the hardware.
  const size_t workers =
      config_.train_threads != 0
          ? config_.train_threads
          : std::clamp<size_t>(std::thread::hardware_concurrency(), 1,
                               kMaxTrainThreads);
  HOSR_GAUGE("trainer/train_threads").Set(static_cast<double>(workers));
  ParallelEngine engine(model_, optimizer_.get(), config_, workers);
  // The engine assumes clean gradients on entry; in sparse mode it then
  // keeps them clean itself by re-zeroing exactly what each batch touched.
  model_->params()->ZeroGrad();
  double total_loss = 0.0;
  for (size_t b = 0; b < num_batches; ++b) {
    const data::BprBatch batch = [&] {
      HOSR_PHASE_US("trainer/sample_us");
      return prefetcher.Next();
    }();
    stats.samples += batch.size();
    total_loss += engine.TrainBatch(batch, &rng_);
  }
  stats.avg_loss = total_loss / static_cast<double>(num_batches);

  stats.seconds = timer.ElapsedSeconds();
  stats.samples_per_sec =
      stats.seconds > 0.0
          ? static_cast<double>(stats.samples) / stats.seconds
          : 0.0;

  HOSR_GAUGE("trainer/epoch_loss").Set(stats.avg_loss);
  HOSR_GAUGE("trainer/epoch_seconds").Set(stats.seconds);
  HOSR_GAUGE("trainer/samples_per_sec").Set(stats.samples_per_sec);
  HOSR_COUNTER("trainer/epochs").Increment();
  HOSR_COUNTER("trainer/batches").Increment(num_batches);

  // Per-phase epoch timeline: fraction of this epoch's wall clock spent in
  // each phase (wall time per phase, so parallel phases count once, not per
  // worker). Phases the active path never entered read 0.
  const double epoch_us = stats.seconds * 1e6;
  for (size_t i = 0; i < kNumPhases; ++i) {
    const uint64_t delta_us =
        obs::Registry::Global().GetCounter(kPhaseCounterNames[i])->Get() -
        phase_us_before[i];
    obs::Registry::Global()
        .GetGauge(PhaseUtilName(kPhaseCounterNames[i]))
        ->Set(epoch_us > 0.0 ? static_cast<double>(delta_us) / epoch_us
                             : 0.0);
  }
  // Stall time (not just counts) the prefetcher consumer spent blocked on
  // an empty queue, as a fraction of the epoch.
  const double stall_us =
      obs::Registry::Global()
          .GetHistogram("sampler/prefetch_stall_us")
          ->Sum() -
      stall_us_before;
  HOSR_GAUGE("trainer/prefetch_stall_ratio")
      .Set(epoch_us > 0.0 ? stall_us / epoch_us : 0.0);

  if (config_.verbose) {
    HOSR_LOG(Info) << model_->name() << " epoch " << epoch_ << " loss "
                   << stats.avg_loss << " (" << stats.seconds << "s, "
                   << stats.batches << " batches, " << stats.samples_per_sec
                   << " samples/s)";
  }
  ++epoch_;
  return stats;
}

std::vector<EpochStats> BprTrainer::Train() {
  std::vector<EpochStats> history;
  if (epoch_ >= config_.epochs) return history;
  history.reserve(config_.epochs - epoch_);
  while (epoch_ < config_.epochs) {
    history.push_back(RunEpoch());
  }
  return history;
}

util::Status BprTrainer::SaveTrainingState(const std::string& path) const {
  std::ostringstream body;
  WritePod(&body, kTrainStateMagic);
  WritePod(&body, kTrainStateVersion);
  WritePod(&body, kEndianMarker);
  WritePod(&body, epoch_);
  WriteConfig(&body, config_);
  WriteString(&body, model_->name());
  WriteRngState(&body, rng_.GetState());
  WriteRngState(&body, sampler_.rng_state());
  HOSR_RETURN_IF_ERROR(optimizer_->SaveState(&body));
  HOSR_RETURN_IF_ERROR(autograd::WriteParams(*model_->params(), &body));
  WritePod(&body, kTrainStateSentinel);
  if (!body) return util::Status::IoError("training state serialization failed");
  return util::WriteFileAtomicWithCrc(path, body.str());
}

util::Status BprTrainer::RestoreTrainingState(const std::string& path) {
  HOSR_ASSIGN_OR_RETURN(std::string raw, util::ReadFileVerifyCrc(path));
  std::istringstream in(raw);

  uint32_t magic = 0, version = 0, endian = 0, epoch = 0;
  if (!ReadPod(&in, &magic) || magic != kTrainStateMagic) {
    return util::Status::InvalidArgument("not a HOSR training state: " + path);
  }
  if (!ReadPod(&in, &version) || version < kTrainStateMinVersion ||
      version > kTrainStateVersion) {
    return util::Status::InvalidArgument(
        util::StrFormat("unsupported training state version %u", version));
  }
  if (!ReadPod(&in, &endian) || endian != kEndianMarker) {
    return util::Status::InvalidArgument(
        "training state written on a foreign-endian machine");
  }
  if (!ReadPod(&in, &epoch) || epoch > config_.epochs) {
    return util::Status::DataLoss("implausible epoch counter");
  }
  HOSR_RETURN_IF_ERROR(CheckConfig(&in, version, config_));
  HOSR_ASSIGN_OR_RETURN(std::string model_name, ReadString(&in));
  if (model_name != model_->name()) {
    return util::Status::FailedPrecondition(
        "training state is for model '" + model_name + "', trainer has '" +
        model_->name() + "'");
  }
  HOSR_ASSIGN_OR_RETURN(util::RngState trainer_rng, ReadRngState(&in));
  HOSR_ASSIGN_OR_RETURN(util::RngState sampler_rng, ReadRngState(&in));

  // Stage the mutable state: the optimizer and params restore in place
  // only after every header check above has passed, and the stream is
  // validated down to the sentinel before the cheap scalar state flips.
  HOSR_RETURN_IF_ERROR(optimizer_->LoadState(&in));
  HOSR_RETURN_IF_ERROR(autograd::ReadParams(&in, model_->params()));
  uint32_t sentinel = 0;
  if (!ReadPod(&in, &sentinel) || sentinel != kTrainStateSentinel) {
    return util::Status::DataLoss("training state missing trailing sentinel");
  }

  rng_.SetState(trainer_rng);
  sampler_.set_rng_state(sampler_rng);
  epoch_ = epoch;
  HOSR_COUNTER("train/resumes").Increment();
  return util::Status::Ok();
}

}  // namespace hosr::models
