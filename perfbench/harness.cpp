/// \file harness.cpp
/// gmd_perfbench: runs one benchmark workload for a fixed number of host
/// seconds and writes everything it measured — host block, set-up
/// times, per-pass wall/CPU times, checks, digests and (when traced)
/// spans — as one JSON document.  perfbench/run.py builds this binary,
/// runs it and turns the document into the benchmark's metrics.
///
/// Usage: gmd_perfbench --workload W --seed N --seconds S --trace 0|1
///                      --work-dir DIR --out FILE

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::record(Span span) {
  if (span.id == 0) span.id = next_id();
  span.pass = pass_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t parent,
                     bool sample_cpu)
    : tracer_(tracer), sample_cpu_(sample_cpu) {
  if (!tracer_.enabled()) return;
  span_ = std::make_unique<Span>();
  span_->id = tracer_.next_id();
  span_->parent = parent;
  span_->name = std::move(name);
  if (sample_cpu_) span_->cpu0 = process_cpu_s();
  span_->t0 = now_s();
}

Tracer::Scope::~Scope() {
  if (!span_) return;
  span_->t1 = now_s();
  if (sample_cpu_) span_->cpu1 = process_cpu_s();
  tracer_.record(std::move(*span_));
}

void Tracer::Scope::attr(const std::string& key, double value) {
  if (span_) span_->attrs.emplace_back(key, value);
}

void Outcome::check(const std::string& name, bool ok,
                    const std::string& detail) {
  checks.push_back(Check{name, ok, detail});
}

void Outcome::set_record(const std::string& key, const std::string& v) {
  for (auto& [k, existing] : record) {
    if (k == key) {
      // Every pass must reproduce the first pass's outputs.
      if (existing != v) {
        check("repeatable." + key, false, "first " + existing + ", later " + v);
      }
      return;
    }
  }
  record.emplace_back(key, v);
}

namespace {

// --- JSON output ---------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T, typename F>
std::string join(const std::vector<T>& items, F&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",";
    out += render(items[i]);
  }
  return out + "]";
}

// --- host block ----------------------------------------------------------

std::size_t host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

/// A fixed single-threaded integer and floating-point loop.  Its time
/// scales results across hosts: compare ratios to it, not raw seconds.
double calibration_loop_s() {
  volatile std::uint64_t sink = 0;
  const double t0 = now_s();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double acc = 1.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc = acc * 0.999999 + static_cast<double>(x & 0xFF) * 1e-9;
  }
  sink = x + static_cast<std::uint64_t>(acc);
  (void)sink;
  return now_s() - t0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct PassTiming {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
};

std::string span_json(const Span& s) {
  std::string attrs = "{";
  for (std::size_t i = 0; i < s.attrs.size(); ++i) {
    if (i) attrs += ",";
    attrs += quote(s.attrs[i].first) + ":" + num(s.attrs[i].second);
  }
  attrs += "}";
  return "{\"id\":" + std::to_string(s.id) +
         ",\"parent\":" + std::to_string(s.parent) + ",\"name\":" +
         quote(s.name) + ",\"pass\":" + std::to_string(s.pass) +
         ",\"t0\":" + num(s.t0) + ",\"t1\":" + num(s.t1) +
         ",\"cpu0\":" + num(s.cpu0) + ",\"cpu1\":" + num(s.cpu1) +
         ",\"tag\":" + quote(s.tag) + ",\"attrs\":" + attrs + "}";
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "gmd_perfbench: %s\n", message.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.threads = host_nproc();
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else if (key == "--out") {
      out_path = value;
    } else {
      return usage_error("unknown argument " + key);
    }
  }
  if (config.workload.empty() || config.work_dir.empty() || out_path.empty() ||
      !(config.seconds > 0.0)) {
    return usage_error(
        "usage: gmd_perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--work-dir DIR --out FILE");
  }

  try {
    std::vector<double> calibration;
    for (int i = 0; i < 5; ++i) calibration.push_back(calibration_loop_s());

    std::unique_ptr<Workload> workload = make_workload(config);
    Tracer& trace = tracer();

    // Set-up is repeated so its median is steady: at least three times,
    // and until a second of set-up has been measured.
    trace.set_enabled(config.trace);
    std::vector<double> setup_s;
    double setup_total = 0.0;
    while (setup_s.size() < 3 || (setup_total < 1.0 && setup_s.size() < 200)) {
      const double t0 = now_s();
      workload->setup();
      setup_s.push_back(now_s() - t0);
      setup_total += setup_s.back();
    }
    workload->prepare();

    // Timed passes.  A traced run alternates traced and untraced passes,
    // so the tracing overhead is measured within one process.
    const std::size_t min_passes = config.trace ? 4 : 3;
    std::vector<PassTiming> passes;
    const double start = now_s();
    for (int pass = 0;; ++pass) {
      const auto done = static_cast<std::size_t>(pass);
      if (done >= min_passes && now_s() - start >= config.seconds) break;
      if (done >= 100000) break;
      const bool traced = config.trace && pass % 2 == 0;
      trace.set_enabled(traced);
      trace.set_pass(pass);
      workload->before_pass(pass);
      const double c0 = process_cpu_s();
      const double t0 = now_s();
      {
        Tracer::Scope pass_span(trace, "pass", 0, true);
        workload->run_pass(pass, traced, pass_span.id());
      }
      passes.push_back({now_s() - t0, process_cpu_s() - c0, traced});
      workload->after_pass(pass);
    }
    trace.set_pass(-1);
    trace.set_enabled(config.trace);
    workload->finish(config.trace);
    trace.set_enabled(false);

    const Outcome& outcome = workload->outcome();
    std::ostringstream out;
    out << "{\"workload\":" << quote(config.workload)
        << ",\"seed\":" << config.seed << ",\"threads\":" << config.threads
        << ",\"trace\":" << (config.trace ? 1 : 0);
    out << ",\"host\":{\"nproc\":" << host_nproc()
        << ",\"cpu_model\":" << quote(cpu_model())
        << ",\"compiler\":" << quote(PERFBENCH_COMPILER)
        << ",\"flags\":" << quote(PERFBENCH_FLAGS) << ",\"calibration_s\":"
        << join(calibration, [](double v) { return num(v); }) << "}";
    out << ",\"setup_s\":" << join(setup_s, [](double v) { return num(v); });
    out << ",\"passes\":" << join(passes, [](const PassTiming& p) {
      return "{\"wall_s\":" + num(p.wall_s) + ",\"cpu_s\":" + num(p.cpu_s) +
             ",\"traced\":" + (p.traced ? "true" : "false") + "}";
    });
    out << ",\"peak_rss_mb\":" << num(peak_rss_mb())
        << ",\"attempted\":" << outcome.attempted
        << ",\"failed\":" << outcome.failed;
    out << ",\"checks\":" << join(outcome.checks, [](const Check& c) {
      return "{\"name\":" + quote(c.name) +
             ",\"ok\":" + (c.ok ? "true" : "false") +
             ",\"detail\":" + quote(c.detail) + "}";
    });
    out << ",\"record\":{";
    for (std::size_t i = 0; i < outcome.record.size(); ++i) {
      if (i) out << ",";
      out << quote(outcome.record[i].first) << ":"
          << quote(outcome.record[i].second);
    }
    out << "},\"values\":{";
    for (std::size_t i = 0; i < outcome.values.size(); ++i) {
      if (i) out << ",";
      out << quote(outcome.values[i].first) << ":"
          << num(outcome.values[i].second);
    }
    out << "},\"requests\":" << join(outcome.requests, [](const RequestSample& r) {
      std::string row = "[";
      row += quote(r.verb);
      row += r.ok ? ",true" : ",false";
      row += r.cached ? ",true," : ",false,";
      row += quote(r.error) + "," + num(r.ms) + "," + std::to_string(r.pass);
      return row + "]";
    });
    out << ",\"spans\":" << join(trace.take(), span_json) << "}\n";

    std::ofstream file(out_path);
    file << out.str();
    file.close();
    if (!file) return usage_error("cannot write " + out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gmd_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
