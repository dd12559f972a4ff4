#pragma once

// Shared plumbing of the benchmark driver: run options, sample sets, the
// in-memory span recorder and the result report.  Everything here is the
// benchmark's own code; the simulator is only called from workloads.cpp.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< reduced sizes, one repetition, every check
  std::string trace_out;  ///< where the traced run writes its spans
};

inline std::int64_t hostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(std::int64_t t0_ns) {
  return static_cast<double>(hostNs() - t0_ns) * 1e-9;
}

/// A distribution of measured values.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  double median() const { return at(0.5); }
  double quantile(double q) const { return at(q); }
  /// The highest percentile with at least ten samples beyond it: the 11th
  /// largest sample.  With ten samples or fewer there is no such
  /// percentile and this falls back to the largest sample.
  double tail() const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    return s.size() > 10 ? s[s.size() - 11] : s.back();
  }
  /// Which percentile tail() reports, for the notes.
  double tailPercentile() const {
    return v_.size() > 10
               ? 100.0 * static_cast<double>(v_.size() - 10) /
                     static_cast<double>(v_.size())
               : 100.0;
  }

 private:
  double at(double q) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  std::vector<double> v_;
};

/// Spans recorded around calls into the simulator's layers.  Kept in
/// memory and written once, when the run ends.  Fibers are baton-passed
/// OS threads, so at most one thread records at a time; spans of fibers
/// interleave, hence spans are closed by index rather than from a stack.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index of the enclosing span, -1 at the root
    int id;      ///< the rank (or shard) the span belongs to, -1 if none
  };

  int open(const char* name, int id = -1) {
    spans_.push_back(Span{name, hostNs() - origin_, -1, current_, id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) {
    spans_[static_cast<std::size_t>(span)].end_ns = hostNs() - origin_;
  }
  /// Makes `span` the parent of spans opened from now on.
  void enter(int span) { current_ = span; }
  void leave(int span) {
    current_ = spans_[static_cast<std::size_t>(span)].parent;
  }
  /// Keeps memory flat across repetitions: only the last is written.
  void clear() {
    spans_.clear();
    current_ = -1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t origin_ = hostNs();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span that is also the parent of spans opened inside it.
class Scope {
 public:
  Scope(Tracer* t, const char* name, int id = -1) : t_(t) {
    if (t_ != nullptr) {
      span_ = t_->open(name, id);
      t_->enter(span_);
    }
  }
  ~Scope() {
    if (t_ != nullptr) {
      t_->close(span_);
      t_->leave(span_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int span_ = -1;
};

/// What one run of one workload reports.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  void samples(const std::string& name, const Samples& s,
               const std::string& unit);
  void note(std::string text) { notes_.push_back(std::move(text)); }
  /// An end-to-end timing: its median, with the sample count and range in
  /// the notes.
  void timing(const std::string& name, const Samples& s,
              const std::string& unit = "s");

  /// Counts operations the workload attempted.
  void attempt(std::uint64_t n) { attempted_ += n; }
  /// Records operations that failed (requests failed, ranks unfinished).
  void fail(std::uint64_t n, const std::string& what);
  /// One output check: counts as one attempted operation, and as a failed
  /// one when `ok` is false.
  void check(bool ok, const std::string& what);

  /// Host context recorded with every result.
  void context(const std::string& key, const std::string& json_value) {
    context_[key] = json_value;
  }

  bool correct() const { return failed_ == 0; }

  /// Layers this workload does not exercise, by metric-name prefix, with
  /// the reason (the driver script reports their metrics as absent).
  void absent(const std::string& prefix, const std::string& why) {
    absent_[prefix] = why;
  }

  /// Prints everything measured as one line, `PERFBENCH_RESULT {json}`.
  /// The driver script turns it into the benchmark's result line.
  void print() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> context_;
  std::map<std::string, std::string> absent_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Runs one workload for `opt.seconds` and fills `report`.
void runWorkload(const Options& opt, Report& report, Tracer& tracer);

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workloadNames();

}  // namespace perfbench
