// Spans recorded around the benchmark's calls into FusionDB's public
// functions. A span is one call: its layer name, start and end on the
// steady clock, the span that caused it and the operation it belongs to.
// Spans stay in memory while the run measures and are written out as JSON
// lines when it ends; a layer's self time is its span's duration minus the
// time its child spans cover.
#ifndef FUSIONDB_E2EBENCH_TRACE_H_
#define FUSIONDB_E2EBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/operator_stats.h"

namespace e2ebench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the causing span; -1 for a root
  int64_t op = -1;      // operation id shared by the spans of one operation
  std::string label;    // what the operation ran (query name), roots only
};

class Tracer {
 public:
  /// A disabled tracer records nothing: Begin returns -1 and End ignores it.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  int32_t Begin(const char* name, int32_t parent, int64_t op,
                std::string label = {}) {
    if (!enabled_) return -1;
    spans_.push_back({name, fusiondb::NowNanos(), 0, parent, op,
                      std::move(label)});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = fusiondb::NowNanos();
  }

  /// Self time in microseconds of every span, grouped by span name.
  /// Children of one span run one after another, so their durations add.
  std::map<std::string, std::vector<double>> SelfMicrosByName() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(static_cast<double>(self[i]) * 1e-3);
    }
    return out;
  }

  /// Writes one JSON object per span. Returns false when the file cannot
  /// be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"op\":%lld,"
                   "\"label\":\"%s\"}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.op), s.label.c_str());
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

}  // namespace e2ebench

#endif  // FUSIONDB_E2EBENCH_TRACE_H_
