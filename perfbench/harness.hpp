#pragma once

/// \file harness.hpp
/// The benchmark harness's shared vocabulary: clocks, the in-memory span
/// recorder, and the record a workload fills while it runs.  Spans are
/// recorded only from the benchmark's own code, around calls into the
/// library's public API and at the public hooks it already exposes
/// (SweepOptions::fault_hook / row_sink, ExplorerOptions::round_hook).
/// They are kept in memory and written out once the run ends;
/// perfbench/analysis.py turns them into the per-layer metrics.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host seconds since the process's first call (steady clock).
double now_s();
/// CPU seconds consumed by the whole process so far.
double process_cpu_s();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: no parent.
  std::string name;
  int pass = -1;  ///< Timed pass index; -1 outside the timed passes.
  double t0 = 0.0;
  double t1 = 0.0;
  double cpu0 = -1.0;  ///< Process CPU seconds; < 0 when not sampled.
  double cpu1 = -1.0;
  std::string tag;  ///< e.g. the memory kind of a memsim point.
  std::vector<std::pair<std::string, double>> attrs;
};

/// Thread-safe span store.  While disabled every call is a no-op, so an
/// untraced pass pays one relaxed load per instrumented call.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  void set_pass(int pass) { pass_.store(pass, std::memory_order_relaxed); }

  /// Reserves an id for a span recorded later with record().
  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  /// Stamps the current pass on `span` (and an id if it has none).
  void record(Span span);
  std::vector<Span> take();

  /// RAII span: opens on construction, records on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t parent,
          bool sample_cpu);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// 0 when the tracer is disabled.
    std::uint64_t id() const { return span_ ? span_->id : 0; }
    void attr(const std::string& key, double value);

   private:
    Tracer& tracer_;
    std::unique_ptr<Span> span_;
    bool sample_cpu_ = false;
  };

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int> pass_{-1};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;  ///< Guarded by mutex_.
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< nproc of the host.
  std::string work_dir;     ///< Scratch files of this run.
};

/// One correctness check; a false `ok` fails the run.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// One request of a closed-loop client (serve_mixed).
struct RequestSample {
  std::string verb;
  bool ok = false;
  bool cached = false;  ///< simulate: the response row came from the cache.
  std::string error;    ///< Error code when !ok (e.g. "overloaded").
  double ms = 0.0;      ///< Client-side latency of Service::handle.
  int pass = 0;
};

/// What a workload reports beyond its pass timings.
struct Outcome {
  std::uint64_t attempted = 0;  ///< Sweep rows / labelled points.
  std::uint64_t failed = 0;     ///< Non-ok rows among them.
  std::vector<Check> checks;
  /// Deterministic outputs compared against the digests recorded for
  /// the shipped seeds (perfbench/expected.json).
  std::vector<std::pair<std::string, std::string>> record;
  /// Workload figures that are not timings (R², best cycles, ...).
  std::vector<std::pair<std::string, double>> values;
  std::vector<RequestSample> requests;

  void check(const std::string& name, bool ok, const std::string& detail = "");
  void value(const std::string& name, double v) { values.emplace_back(name, v); }
  void set_record(const std::string& key, const std::string& v);
};

/// A benchmark workload.  setup() builds the inputs (timed as set-up,
/// repeated); run_pass() is one timed unit of work, bracketed by the
/// untimed before_pass()/after_pass(); finish() runs the checks that
/// must stay outside the timed phase.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// Untimed preparation between the last set-up and the first pass.
  virtual void prepare() {}
  virtual void before_pass(int /*pass*/) {}
  virtual void run_pass(int pass, bool traced, std::uint64_t pass_span) = 0;
  virtual void after_pass(int /*pass*/) {}
  virtual void finish(bool traced) = 0;
  Outcome& outcome() { return outcome_; }

 protected:
  Outcome outcome_;
};

Tracer& tracer();

std::unique_ptr<Workload> make_workload(const RunConfig& config);

}  // namespace perfbench
