// train_hosr: the paper's model, training. Also the training-layer probes
// every traced run reports.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "autograd/tape.h"
#include "common.h"
#include "data/sampler.h"
#include "eval/evaluator.h"
#include "graph/laplacian.h"
#include "graph/spmm.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "serve/snapshot.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/random.h"

namespace hosr::perfbench {

namespace {

// Trainer phase counters (the engine's own split of an epoch) and the
// kernel flop counters, by registry name.
constexpr const char* kCounterNames[] = {
    "trainer/sample_us",          "trainer/shared_forward_us",
    "trainer/slice_backward_us",  "trainer/reduce_us",
    "trainer/seeded_backward_us", "trainer/step_us",
    "trainer/forward_us",         "trainer/backward_us",
    "kernels/gemm_flops",         "spmm/flops",
};

constexpr const char* kEnginePhases[] = {
    "sample", "shared_forward", "slice_backward",
    "reduce", "seeded_backward", "step",
};

tensor::Matrix RandomMatrix(size_t rows, size_t cols, util::Rng* rng) {
  tensor::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->UniformFloat() - 0.5f;
  }
  return m;
}

// Median wall µs of `reps` calls of fn.
template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    fn();
    us.push_back((NowNs() - t0) / 1e3);
  }
  return Median(us);
}

// Training state after one epoch on a small dataset must be byte-equal at
// one thread and at nproc threads.
void ThreadIdentityGate(const RunOptions& options, Report* report) {
  const WorkloadData gate_data =
      MakeWorkloadData(options.gate_scale, options.data_seed);
  const uint32_t wide = std::max(2u, HardwareThreads());
  std::string bytes[2];
  for (int i = 0; i < 2; ++i) {
    core::Hosr model(gate_data.split.train, HosrConfig(options));
    models::BprTrainer trainer(&model, &gate_data.split.train.interactions,
                               TrainerConfig(options, i == 0 ? 1 : wide));
    trainer.RunEpoch();
    const std::string path =
        options.workdir + "/gate_state_" + std::to_string(i);
    HOSR_CHECK(trainer.SaveTrainingState(path).ok());
    bytes[i] = ReadFileBytes(path);
    std::filesystem::remove(path);
  }
  report->Gate("train_state_1t_eq_nt",
               !bytes[0].empty() && bytes[0] == bytes[1],
               "training state after one epoch, 1 vs " +
                   std::to_string(wide) + " threads, " +
                   std::to_string(bytes[0].size()) + " bytes");
}

}  // namespace

double RecallAt20(core::Hosr* model, const WorkloadData& data) {
  eval::Evaluator evaluator(&data.split.train.interactions, &data.split.test,
                            20);
  return evaluator
      .Evaluate([&](const std::vector<uint32_t>& users) {
        return model->ScoreAllItems(users);
      })
      .recall;
}

std::map<std::string, double> ReadTrainCounters() {
  std::map<std::string, double> values;
  for (const char* name : kCounterNames) {
    values[name] = static_cast<double>(
        obs::Registry::Global().GetCounter(name)->Get());
  }
  return values;
}

std::map<std::string, double> TimedEpoch(models::BprTrainer* trainer,
                                         uint64_t trace_id) {
  const auto before = ReadTrainCounters();
  const int64_t t0 = NowNs();
  models::EpochStats stats;
  {
    SpanScope span("models.RunEpoch", trace_id);
    stats = trainer->RunEpoch();
  }
  const int64_t t1 = NowNs();
  auto delta = ReadTrainCounters();
  for (auto& [name, value] : delta) value -= before.at(name);
  delta["wall_us"] = (t1 - t0) / 1e3;
  delta["samples"] = static_cast<double>(stats.samples);
  delta["batches"] = static_cast<double>(stats.batches);
  delta["loss"] = stats.avg_loss;
  std::fprintf(stderr, "epoch %u: %zu samples in %.3f s, %.0f samples/s\n",
               stats.epoch, stats.samples, delta["wall_us"] / 1e6,
               delta["samples"] / (delta["wall_us"] * 1e-6));
  return delta;
}

double BestSamplesPerS(
    const std::vector<std::map<std::string, double>>& epochs) {
  std::vector<double> rates;
  for (const auto& e : epochs) {
    rates.push_back(e.at("samples") / (e.at("wall_us") * 1e-6));
  }
  return *std::max_element(rates.begin(), rates.end());
}

std::map<std::string, double> MeanOf(
    const std::vector<std::map<std::string, double>>& epochs) {
  std::map<std::string, double> mean;
  for (const auto& epoch : epochs) {
    for (const auto& [name, value] : epoch) {
      mean[name] += value / static_cast<double>(epochs.size());
    }
  }
  return mean;
}

void TrainLayerSweep(const RunOptions& options, const WorkloadData& data,
                     const std::map<std::string, double>& pe,
                     core::Hosr* model, Report* report) {
  const double epoch_us = pe.at("wall_us");
  report->Set("models.run_epoch_us", epoch_us, "us");
  double phase_sum_us = 0.0;
  for (const char* phase : kEnginePhases) {
    const double us = pe.at(std::string("trainer/") + phase + "_us");
    report->Set(std::string("models.") + phase + "_us", us, "us");
    phase_sum_us += us;
  }
  report->Set("models.phase_coverage", phase_sum_us / epoch_us, "ratio");
  const double gemm_flop = pe.at("kernels/gemm_flops");
  const double spmm_flop = pe.at("spmm/flops");
  report->Set("kernels.gemm_gflop", gemm_flop / 1e9, "GFLOP");
  report->Set("kernels.spmm_gflop", spmm_flop / 1e9, "GFLOP");
  const double propagation_us = pe.at("trainer/shared_forward_us") +
                                pe.at("trainer/seeded_backward_us");
  report->Set("core.propagation_gflops",
              (gemm_flop + spmm_flop) / (propagation_us * 1e3), "GFLOP/s");

  // Single-worker baseline of the same task.
  {
    core::Hosr fresh(data.split.train, HosrConfig(options));
    models::BprTrainer trainer(&fresh, &data.split.train.interactions,
                               TrainerConfig(options, 1));
    SpanScope span("models.train_1t");
    const auto epoch = TimedEpoch(&trainer, 0);
    report->Set("models.samples_per_s_1t",
                epoch.at("samples") / (epoch.at("wall_us") * 1e-6), "1/s");
  }

  // One batch replayed through each training layer in turn.
  {
    data::BprSampler sampler(&data.split.train.interactions,
                             options.seed + 101);
    util::Rng rng(options.seed + 202);
    const models::TrainConfig config = TrainerConfig(options, 1);
    auto optimizer = optim::MakeOptimizer(config.optimizer,
                                          config.learning_rate,
                                          config.weight_decay);
    std::vector<double> sample_us, loss_us, backward_us, step_us;
    for (uint64_t r = 1; r <= 5; ++r) {
      SpanScope root("models.batch_replay", r);
      int64_t t = NowNs();
      data::BprBatch batch;
      {
        SpanScope span("data.SampleBatch", r);
        batch = sampler.SampleBatch(options.batch);
      }
      int64_t now = NowNs();
      sample_us.push_back((now - t) / 1e3);
      t = now;
      autograd::Tape tape;
      autograd::Value loss;
      {
        SpanScope span("core.BuildLoss", r);
        loss = model->BuildLoss(&tape, batch, &rng);
      }
      now = NowNs();
      loss_us.push_back((now - t) / 1e3);
      t = now;
      {
        SpanScope span("autograd.Backward", r);
        model->params()->ZeroGrad();
        tape.Backward(loss);
      }
      now = NowNs();
      backward_us.push_back((now - t) / 1e3);
      t = now;
      {
        SpanScope span("optim.Step", r);
        optimizer->Step(model->params());
      }
      step_us.push_back((NowNs() - t) / 1e3);
    }
    report->Set("data.sample_batch_us", Median(sample_us), "us");
    report->Set("core.build_loss_us", Median(loss_us), "us");
    report->Set("autograd.backward_us", Median(backward_us), "us");
    report->Set("optim.step_us", Median(step_us), "us");
  }

  // Kernels on the propagation shapes, plus a compute-bound peak.
  util::Rng rng(options.seed + 303);
  const size_t users = data.split.train.num_users();
  const size_t d = options.dim;
  {
    SpanScope span("tensor.Gemm");
    const tensor::Matrix a = RandomMatrix(users, d, &rng);
    const tensor::Matrix w = RandomMatrix(d, d, &rng);
    tensor::Matrix out(users, d);
    const double us = MedianUs(21, [&] {
      tensor::Gemm(a, false, w, false, 1.0f, 0.0f, &out);
    });
    report->Set("tensor.gemm_us", us, "us");
    report->Set("tensor.gemm_gflops", 2.0 * users * d * d / (us * 1e3),
                "GFLOP/s");
  }
  {
    SpanScope span("graph.Spmm");
    const graph::CsrMatrix laplacian =
        graph::NormalizedLaplacian(data.split.train.social.adjacency());
    const tensor::Matrix x = RandomMatrix(users, d, &rng);
    tensor::Matrix out(users, d);
    tensor::Matrix out_t(users, d);
    const double us = MedianUs(21, [&] {
      graph::Spmm(laplacian, x, &out);
      graph::SpmmTranspose(laplacian, x, &out_t);
    });
    report->Set("graph.spmm_us", us, "us");
    report->Set("graph.spmm_gflops",
                2.0 * 2.0 * laplacian.nnz() * d / (us * 1e3), "GFLOP/s");
  }
  {
    SpanScope span("kernels.peak");
    constexpr size_t kN = 384;
    const tensor::Matrix a = RandomMatrix(kN, kN, &rng);
    const tensor::Matrix b = RandomMatrix(kN, kN, &rng);
    tensor::Matrix out(kN, kN);
    double best_us = 1e300;
    for (int r = 0; r < 7; ++r) {
      best_us = std::min(best_us, MedianUs(1, [&] {
        tensor::Gemm(a, false, b, false, 1.0f, 0.0f, &out);
      }));
    }
    report->Set("kernels.peak_gflops", 2.0 * kN * kN * kN / (best_us * 1e3),
                "GFLOP/s");
  }
  {
    SpanScope span("core.ExportFactors");
    const double us = MedianUs(3, [&] {
      auto factors = model->ExportFactors();
      HOSR_CHECK(factors.ok()) << factors.status().ToString();
    });
    report->Set("core.export_factors_us", us, "us");
  }
}

void RunTrainHosr(const RunOptions& options, Report* report) {
  // Set-up: data generation and model construction, repeated; every
  // repetition must agree.
  std::vector<double> setup_s;
  WorkloadData data;
  std::unique_ptr<core::Hosr> model;
  bool same = true;
  for (uint32_t rep = 0; rep < options.setup_reps; ++rep) {
    const int64_t t0 = NowNs();
    WorkloadData generated =
        MakeWorkloadData(options.scale, options.data_seed);
    auto built = std::make_unique<core::Hosr>(generated.split.train,
                                              HosrConfig(options));
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (rep == 0) {
      data = std::move(generated);
      model = std::move(built);
    } else {
      same = same && generated.split.train.interactions.nnz() ==
                         data.split.train.interactions.nnz() &&
             generated.split.test.nnz() == data.split.test.nnz();
    }
  }
  report->Gate("setup_deterministic", same,
               std::to_string(options.setup_reps) +
                   " data generations agree");
  std::fprintf(stderr, "dataset: %u users, %u items, %zu train, %zu test\n",
               data.full.num_users(), data.full.num_items(),
               data.split.train.interactions.nnz(), data.split.test.nnz());

  ThreadIdentityGate(options, report);

  models::BprTrainer trainer(model.get(), &data.split.train.interactions,
                             TrainerConfig(options, HardwareThreads()));
  trainer.RunEpoch();  // warm-up: pages in tables, starts the workers

  // Timed epochs for 60% of --seconds, at least two; the trained model is
  // then served for --seconds. recall_at_20 is taken at a fixed epoch so
  // it does not depend on speed.
  // A traced run alternates untraced and traced epochs; their ratio is the
  // tracing overhead.
  std::vector<std::map<std::string, double>> epochs, traced, untraced;
  double recall = -1.0;
  bool finite = true;
  const double train_seconds = options.seconds * 0.6;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(train_seconds * 1e9);
  while (epochs.size() < 2 || NowNs() < deadline) {
    const bool traced_epoch = options.trace && epochs.size() % 2 == 1;
    Spans::Get().set_enabled(traced_epoch);
    epochs.push_back(TimedEpoch(&trainer, epochs.size() + 1));
    (traced_epoch ? traced : untraced).push_back(epochs.back());
    Spans::Get().set_enabled(options.trace);
    finite = finite && std::isfinite(epochs.back().at("loss"));
    if (trainer.epoch() == options.recall_epochs) {
      recall = RecallAt20(model.get(), data);
    }
  }
  while (trainer.epoch() < options.recall_epochs) {
    trainer.RunEpoch();
    if (trainer.epoch() == options.recall_epochs) {
      recall = RecallAt20(model.get(), data);
    }
  }
  double samples = 0.0;
  double wall_us = 0.0;
  double batches = 0.0;
  for (const auto& e : epochs) {
    samples += e.at("samples");
    wall_us += e.at("wall_us");
    batches += e.at("batches");
  }
  report->Gate("loss_finite", finite, "every timed epoch's mean loss");
  report->Gate("recall_positive", recall > 0.0,
               "recall@20 after epoch " +
                   std::to_string(options.recall_epochs) + " = " +
                   std::to_string(recall));
  report->AddAttempts(static_cast<uint64_t>(batches), finite ? 0 : 1);
  std::fprintf(stderr, "timed %zu epochs: %.0f samples in %.3f s\n",
               epochs.size(), samples, wall_us / 1e6);

  // Serve the model just trained: uniform users, no cache, and the
  // snapshot republished after the traffic.
  auto snapshot = serve::BuildSnapshot(*model);
  HOSR_CHECK(snapshot.ok()) << snapshot.status().ToString();
  const std::string path = options.workdir + "/train_hosr.snap";
  HOSR_CHECK(serve::SaveSnapshot(*snapshot, path).ok());
  const ServeParams serving{&options, &data, path, path,
                            /*use_cache=*/false, /*zipf=*/0.0,
                            /*reload_under_traffic=*/false,
                            options.seconds};
  if (!options.trace) {
    report->Set("setup_s", Median(setup_s), "s");
    report->Set("samples_per_s", BestSamplesPerS(epochs), "1/s");
    report->Set("recall_at_20", recall, "ratio");
    MeasureServing(serving, report);
    return;
  }
  report->Set("trace.overhead_ratio",
              MeanOf(traced).at("wall_us") / MeanOf(untraced).at("wall_us"),
              "ratio");
  TrainLayerSweep(options, data, MeanOf(epochs), model.get(), report);
  ServeLayerSweep(serving, report);
}

}  // namespace hosr::perfbench
