#ifndef HOSR_OBS_REPORTER_H_
#define HOSR_OBS_REPORTER_H_

#include <string>

#include "util/flags.h"
#include "util/status.h"

namespace hosr::obs {

// Writes Registry::Global().ToJson() to `path`.
util::Status WriteMetricsJson(const std::string& path);

// One-call wiring for binaries:
//   --metrics_out=FILE        dump the metrics registry JSON at process exit;
//                             while the recorder runs, every recorder tick
//                             rewrites it too
//   --trace_out=FILE          dump the Chrome trace JSON at process exit
//   --profile_out=FILE        run the sampling CPU profiler for the whole
//                             process lifetime; write collapsed stacks to
//                             FILE and a JSON summary to FILE.summary.json
//                             at exit
//   --profile_hz=N            profiler sampling rate (default 99)
//   --timeseries_out=FILE     dump the recorder's CRC-footed windowed-history
//                             JSON to FILE at exit
//   --admin_port=N            (N >= 0) the binary serves /timeseriez, so the
//                             recorder runs
//   --timeseries_interval=S   recorder snapshot cadence (default 1.0)
//   --log_level=debug|info|warning|error
// Starts TimeseriesRecorder::Global() — the one thread that snapshots the
// registry on a cadence — when --timeseries_out is set or --admin_port >= 0.
// Enables span/histogram capture (SetEnabled(true)) when any output path is
// set, and registers FlushArtifacts() to run at exit.
void InitFromFlags(const util::Flags& flags);

// Stops the profiler and the recorder InitFromFlags started (each takes a
// final snapshot), then writes whatever InitFromFlags configured. Runs at
// exit; safe to call earlier and again.
void FlushArtifacts();

}  // namespace hosr::obs

#endif  // HOSR_OBS_REPORTER_H_
