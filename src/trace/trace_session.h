// Command-line plumbing for opt-in tracing in the examples and ody_bench.
//
// TraceSession owns a TraceRecorder when the user asked for one
// (`--trace-out=<path>`) and exports it on Export().  When the flag is
// absent the session holds no recorder and recorder() returns nullptr, so
// every ODY_TRACE_* macro downstream is a cheap null-check — tracing truly
// off, not merely discarded.
//
// FromArgs() removes the flags it consumed from argv so the remaining
// arguments can be handed to example-specific parsing.

#ifndef SRC_TRACE_TRACE_SESSION_H_
#define SRC_TRACE_TRACE_SESSION_H_

#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "src/trace/chrome_trace_exporter.h"
#include "src/trace/trace_recorder.h"

namespace odyssey {

class TraceSession {
 public:
  TraceSession() = default;
  explicit TraceSession(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) {
      recorder_ = std::make_unique<TraceRecorder>();
    }
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Consumes --trace-out=<path> from |argv| (compacting the array and
  // decrementing |*argc|) and returns the corresponding session.
  static TraceSession FromArgs(int* argc, char** argv) {
    std::string path;
    int kept = 1;
    for (int i = 1; i < *argc; ++i) {
      const std::string arg = argv[i];
      const std::string prefix = "--trace-out=";
      if (arg.compare(0, prefix.size(), prefix) == 0) {
        path = arg.substr(prefix.size());
        continue;
      }
      argv[kept++] = argv[i];
    }
    *argc = kept;
    return TraceSession(path);
  }

  bool enabled() const { return recorder_ != nullptr; }
  TraceRecorder* recorder() { return recorder_.get(); }
  const std::string& path() const { return path_; }

  // Writes the trace to path().  No-op success when tracing is disabled.
  [[nodiscard]] bool Export(std::string* error) {
    if (recorder_ == nullptr) {
      if (error != nullptr) {
        error->clear();
      }
      return true;
    }
    return ChromeTraceExporter::WriteFile(*recorder_, path_, error);
  }

  // Export() with failure reported to stderr; returns whether it succeeded.
  bool ExportOrWarn() {
    std::string error;
    if (!Export(&error)) {
      std::cerr << "trace export failed: " << error << "\n";
      return false;
    }
    if (enabled()) {
      std::cerr << "trace written to " << path_ << " (" << recorder_->recorded_count()
                << " events, " << recorder_->dropped_count() << " dropped)\n";
    }
    return true;
  }

 private:
  std::string path_;
  std::unique_ptr<TraceRecorder> recorder_;
};

}  // namespace odyssey

#endif  // SRC_TRACE_TRACE_SESSION_H_
