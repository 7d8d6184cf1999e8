#include "obs/reporter.h"

#include <cstdlib>
#include <mutex>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/fileio.h"
#include "util/logging.h"

namespace hosr::obs {

util::Status WriteMetricsJson(const std::string& path) {
  // Atomic so a periodic snapshot interrupted by a crash (or an injected
  // fault) never leaves a half-written JSON file for dashboards to choke on.
  return util::WriteFileAtomic(path, Registry::Global().ToJson());
}

namespace {

struct ArtifactConfig {
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;
  std::string timeseries_path;
  bool started_recorder = false;
  bool flush_registered = false;
};

// Leaked so the atexit flush can read it during shutdown.
ArtifactConfig& Artifacts() {
  static ArtifactConfig* config = new ArtifactConfig;
  return *config;
}

std::mutex& ArtifactsMutex() {
  static std::mutex* mutex = new std::mutex;
  return *mutex;
}

}  // namespace

void InitFromFlags(const util::Flags& flags) {
  const std::string log_level = flags.GetString("log_level", "");
  if (!log_level.empty()) {
    if (log_level == "debug") {
      util::SetLogLevel(util::LogLevel::kDebug);
    } else if (log_level == "info") {
      util::SetLogLevel(util::LogLevel::kInfo);
    } else if (log_level == "warning") {
      util::SetLogLevel(util::LogLevel::kWarning);
    } else if (log_level == "error") {
      util::SetLogLevel(util::LogLevel::kError);
    } else {
      HOSR_LOG(Warning) << "flag --log_level=" << log_level
                        << " is not one of debug|info|warning|error; ignored";
    }
  }

  const std::string trace_path = flags.GetString("trace_out", "");
  const std::string metrics_path = flags.GetString("metrics_out", "");
  const std::string profile_path = flags.GetString("profile_out", "");
  const std::string timeseries_path = flags.GetString("timeseries_out", "");
  const bool any_output = !trace_path.empty() || !metrics_path.empty() ||
                          !profile_path.empty() || !timeseries_path.empty();
  // /timeseriez needs windowed history whether or not --timeseries_out was
  // passed.
  const bool want_recorder =
      !timeseries_path.empty() || flags.GetInt("admin_port", -1) >= 0;
  if (!any_output && !want_recorder) return;

  if (any_output) SetEnabled(true);
  bool register_flush = false;
  {
    std::lock_guard<std::mutex> lock(ArtifactsMutex());
    ArtifactConfig& config = Artifacts();
    register_flush = !config.flush_registered;
    config.flush_registered = true;
    if (!trace_path.empty()) config.trace_path = trace_path;
    if (!metrics_path.empty()) config.metrics_path = metrics_path;
    if (!profile_path.empty()) config.profile_path = profile_path;
    if (!timeseries_path.empty()) config.timeseries_path = timeseries_path;
  }
  if (register_flush) std::atexit(FlushArtifacts);

  if (!profile_path.empty()) {
    Profiler::Options options;
    options.hz = static_cast<int>(flags.GetInt("profile_hz", 99));
    if (auto status = Profiler::Global().Start(options); !status.ok()) {
      HOSR_LOG(Warning) << "could not arm --profile_out profiler: "
                        << status;
    }
  }
  if (want_recorder && !TimeseriesRecorder::Global().running()) {
    TimeseriesRecorder::Options options;
    options.snapshot_interval_s =
        flags.GetDouble("timeseries_interval", 1.0);
    options.metrics_path = metrics_path;
    if (auto status = TimeseriesRecorder::Global().Start(options);
        status.ok()) {
      std::lock_guard<std::mutex> lock(ArtifactsMutex());
      Artifacts().started_recorder = true;
    } else {
      HOSR_LOG(Warning) << "could not start the timeseries recorder: "
                        << status;
    }
  }
}

void FlushArtifacts() {
  const ArtifactConfig config = [] {
    std::lock_guard<std::mutex> lock(ArtifactsMutex());
    return Artifacts();
  }();
  // Profiler first: stopping it is what finalizes the sample set, and only
  // a running session writes — a second flush (explicit + atexit) must not
  // overwrite the artifact with an empty re-collection.
  if (!config.profile_path.empty() && Profiler::Global().running()) {
    const Profile profile = Profiler::Global().StopAndCollect();
    if (auto status =
            util::WriteFileAtomic(config.profile_path, profile.collapsed);
        status.ok()) {
      HOSR_LOG(Info) << "wrote collapsed stacks to " << config.profile_path
                     << " (" << profile.samples << " samples)";
    } else {
      HOSR_LOG(Warning) << "profile dump failed: " << status;
    }
    const std::string summary_path = config.profile_path + ".summary.json";
    if (auto status =
            util::WriteFileAtomic(summary_path, profile.SummaryJson());
        !status.ok()) {
      HOSR_LOG(Warning) << "profile summary dump failed: " << status;
    }
  }
  // Stopping the recorder joins its thread and takes the final snapshot
  // (which also rewrites --metrics_out), so nothing below races a tick.
  if (config.started_recorder) TimeseriesRecorder::Global().Stop();
  if (!config.timeseries_path.empty()) {
    if (auto status = TimeseriesRecorder::Global().DumpToFile(
            config.timeseries_path);
        status.ok()) {
      HOSR_LOG(Info) << "wrote timeseries history to "
                     << config.timeseries_path;
    } else {
      HOSR_LOG(Warning) << "timeseries dump failed: " << status;
    }
  }
  if (!config.metrics_path.empty()) {
    if (auto status = WriteMetricsJson(config.metrics_path); status.ok()) {
      HOSR_LOG(Info) << "wrote metrics to " << config.metrics_path;
    } else {
      HOSR_LOG(Warning) << "metrics dump failed: " << status;
    }
  }
  if (!config.trace_path.empty()) {
    if (const uint64_t dropped = DroppedSpanCount(); dropped > 0) {
      HOSR_LOG(Warning) << "trace ring buffers dropped " << dropped
                        << " spans (oldest-first)";
    }
    if (auto status = WriteTraceJson(config.trace_path); status.ok()) {
      HOSR_LOG(Info) << "wrote trace to " << config.trace_path
                     << " (open in chrome://tracing or ui.perfetto.dev)";
    } else {
      HOSR_LOG(Warning) << "trace dump failed: " << status;
    }
  }
}

}  // namespace hosr::obs
