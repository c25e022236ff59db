/// \file workloads.cpp
/// The four benchmark workloads.  Each one calls the library only
/// through its public API; spans wrap those calls and ride the public
/// sweep/explorer hooks.  The graph is built in set-up from the seed
/// and handed to the timed passes; every parallel stage runs at the
/// host's nproc.

#include <algorithm>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>

#include "gmd/common/hash.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/cpusim/atomic_cpu.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/dse/explorer.hpp"
#include "gmd/dse/lazy_space.hpp"
#include "gmd/dse/recommend.hpp"
#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"
#include "gmd/dse/workflow.hpp"
#include "gmd/graph/csr.hpp"
#include "gmd/graph/edge_list.hpp"
#include "gmd/graph/generators.hpp"
#include "gmd/service/json.hpp"
#include "gmd/service/service.hpp"
#include "gmd/trace/converter.hpp"
#include "gmd/trace/formats.hpp"
#include "gmd/tracestore/reader.hpp"
#include "gmd/tracestore/writer.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using gmd::cpusim::MemoryEvent;
using gmd::dse::DesignPoint;
using gmd::dse::SweepRow;
using Scope = Tracer::Scope;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- inputs ---------------------------------------------------------------

/// GTGraph-style uniform random graph, symmetrised for Graph500
/// semantics — the same construction dse::generate_workload_trace uses.
gmd::graph::CsrGraph build_graph(std::uint32_t vertices, std::uint64_t seed) {
  Scope span(tracer(), "graph.build", 0, false);
  gmd::graph::UniformRandomParams params;
  params.num_vertices = vertices;
  params.edge_factor = 16;
  params.seed = seed;
  gmd::graph::EdgeList list = gmd::graph::generate_uniform_random(params);
  gmd::graph::symmetrize(list);
  gmd::graph::remove_self_loops_and_duplicates(list);
  gmd::graph::CsrGraph graph = gmd::graph::CsrGraph::from_edge_list(list);
  span.attr("vertices", vertices);
  span.attr("edges", static_cast<double>(list.num_edges()));
  return graph;
}

/// Graph500 BFS source: a random vertex, drawn as generate_workload_trace
/// draws it.
gmd::graph::VertexId bfs_source(const gmd::graph::CsrGraph& graph,
                                std::uint64_t seed) {
  gmd::Rng rng(seed ^ 0xB5297A4D3F84C2E1ULL);
  return static_cast<gmd::graph::VertexId>(
      rng.next_below(graph.num_vertices()));
}

struct BfsTrace {
  std::vector<MemoryEvent> events;
  std::uint64_t checksum = 0;  ///< Kernel output (vertices visited).
};

BfsTrace run_bfs(const gmd::graph::CsrGraph& graph,
                 gmd::graph::VertexId source, std::uint64_t parent) {
  Scope span(tracer(), "cpusim.run", parent, false);
  gmd::cpusim::VectorSink sink;
  gmd::cpusim::AtomicCpu cpu(gmd::cpusim::CpuModel{}, &sink);
  const gmd::cpusim::WorkloadResult result =
      gmd::cpusim::BfsWorkload(graph, source).run(cpu);
  BfsTrace trace{sink.take(), result.kernel_output};
  span.attr("events", static_cast<double>(trace.events.size()));
  return trace;
}

std::uint64_t events_digest(std::span<const MemoryEvent> events) {
  gmd::Fnv1a h;
  for (const MemoryEvent& e : events) {
    h.mix(e.tick);
    h.mix(e.address);
    h.mix(e.size);
    h.mix(e.is_write ? 1 : 0);
  }
  return h.state;
}

void mix_metrics(gmd::Fnv1a& h, const gmd::memsim::MemoryMetrics& m) {
  for (const double v : m.metric_values()) h.mix_double(v);
  h.mix(m.total_reads);
  h.mix(m.total_writes);
}

/// Digest of every row's outcome, point and metrics, in row order.
std::uint64_t rows_digest(std::span<const SweepRow> rows) {
  gmd::Fnv1a h;
  for (const SweepRow& row : rows) {
    const std::string id = row.point.id();
    h.mix_bytes(id.data(), id.size());
    h.mix(static_cast<std::uint64_t>(row.outcome));
    mix_metrics(h, row.metrics);
  }
  return h.state;
}

// --- sweep hooks ----------------------------------------------------------

thread_local double t_attempt_start = 0.0;

/// Records one "memsim.point" span per simulated point from the sweep's
/// public hooks: fault_hook fires when an attempt starts, row_sink when
/// its row is final, both on the worker thread that ran the point.
void attach_memsim_spans(gmd::dse::SweepOptions& options,
                         std::uint64_t parent, double events_per_point) {
  options.fault_hook = [](std::size_t, std::uint32_t) {
    t_attempt_start = now_s();
  };
  options.row_sink = [parent, events_per_point](std::size_t,
                                                const SweepRow& row) {
    Span span;
    span.name = "memsim.point";
    span.parent = parent;
    span.t0 = t_attempt_start;
    span.t1 = now_s();
    span.tag = gmd::dse::to_string(row.point.kind);
    span.attrs = {{"events", events_per_point}, {"ok", row.ok() ? 1.0 : 0.0}};
    tracer().record(std::move(span));
  };
}

std::vector<SweepRow> traced_sweep(std::span<const DesignPoint> points,
                                   const gmd::tracestore::TraceStoreReader& store,
                                   std::size_t threads, bool traced,
                                   std::uint64_t parent) {
  Scope span(tracer(), "sweep", parent, true);
  gmd::dse::SweepOptions options;
  options.num_threads = threads;
  if (traced) {
    attach_memsim_spans(options, span.id(),
                        static_cast<double>(store.num_events()));
  }
  std::vector<SweepRow> rows = gmd::dse::run_sweep(points, store, options);
  span.attr("points", static_cast<double>(points.size()));
  span.attr("threads", static_cast<double>(threads));
  return rows;
}

void count_rows(Outcome& outcome, std::span<const SweepRow> rows) {
  outcome.attempted += rows.size();
  for (const SweepRow& row : rows) {
    if (!row.ok()) ++outcome.failed;
  }
}

/// Compares rows against dse::simulate_point on the same store.
void check_against_simulate_point(Outcome& outcome,
                                  const gmd::tracestore::TraceStoreReader& store,
                                  std::span<const SweepRow> rows,
                                  const std::vector<std::size_t>& which,
                                  const std::string& name) {
  bool ok = true;
  std::string detail;
  for (const std::size_t i : which) {
    const gmd::dse::MetricsRow fresh =
        gmd::dse::simulate_point(store, rows[i].point);
    gmd::Fnv1a a;
    gmd::Fnv1a b;
    mix_metrics(a, rows[i].metrics);
    mix_metrics(b, fresh.metrics);
    if (a.state != b.state) {
      ok = false;
      detail += rows[i].point.id() + " differs; ";
    }
  }
  outcome.check(name, ok, detail);
}

/// First DRAM, NVM and hybrid row.
std::vector<std::size_t> one_row_per_kind(std::span<const SweepRow> rows) {
  std::vector<std::size_t> picks;
  std::set<gmd::dse::MemoryKind> seen;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (seen.insert(rows[i].point.kind).second) picks.push_back(i);
  }
  return picks;
}

// --- paper_bfs ------------------------------------------------------------

/// The paper's Fig. 1 workflow in pipeline::run_pipeline's stage order:
/// cpusim trace -> gem5 text -> GMDT store -> 416-point sweep -> 4
/// families x 6 metrics -> deploy each metric's best family -> the two
/// recommendations.
class PaperBfs final : public Workload {
 public:
  explicit PaperBfs(const RunConfig& config)
      : config_(config),
        points_(gmd::dse::paper_design_space()),
        gem5_path_(config.work_dir + "/paper.gem5.txt"),
        store_path_(config.work_dir + "/paper.gmdt") {}

  void setup() override {
    graph_ = build_graph(1024, config_.seed);
    source_ = bfs_source(graph_, config_.seed);
  }

  void run_pass(int, bool traced, std::uint64_t pass_span) override {
    BfsTrace trace = run_bfs(graph_, source_, pass_span);
    const auto events = static_cast<double>(trace.events.size());
    {
      Scope span(tracer(), "trace.gem5_write", pass_span, false);
      std::ofstream out(gem5_path_);
      gmd::trace::Gem5TraceWriter writer(out);
      for (const MemoryEvent& e : trace.events) writer.on_event(e);
      out.close();
      if (!out) throw std::runtime_error("cannot write " + gem5_path_);
      span.attr("events", events);
    }
    {
      Scope span(tracer(), "trace.convert", pass_span, true);
      gmd::trace::ConvertOptions options;
      options.num_threads = config_.threads;
      const gmd::trace::ConvertStats stats =
          gmd::trace::convert_gem5_to_gmdt(gem5_path_, store_path_, options);
      span.attr("events", static_cast<double>(stats.events_out));
    }
    const gmd::tracestore::TraceStoreReader store(store_path_);
    rows_ = traced_sweep(points_, store, config_.threads, traced, pass_span);

    gmd::dse::SurrogateSuite suite;
    {
      Scope span(tracer(), "surrogate.train", pass_span, true);
      gmd::dse::SurrogateOptions options;
      options.num_threads = config_.threads;
      suite = gmd::dse::SurrogateSuite::train(rows_, options);
    }
    {
      Scope span(tracer(), "surrogate.deploy", pass_span, true);
      for (const std::string& metric : gmd::dse::target_metric_names()) {
        (void)gmd::dse::SurrogateSuite::deploy(
            rows_, metric, suite.best_model(metric).model, 1, config_.threads);
      }
    }
    std::vector<gmd::dse::Recommendation> from_sweep;
    std::vector<gmd::dse::Recommendation> from_surrogate;
    {
      Scope span(tracer(), "recommend.sweep", pass_span, false);
      from_sweep = gmd::dse::recommend_from_sweep(rows_);
    }
    {
      Scope span(tracer(), "recommend.surrogate", pass_span, true);
      from_surrogate = gmd::dse::recommend_from_surrogate(rows_, points_);
    }

    // Outputs, compared pass to pass and against the shipped digests.
    count_rows(outcome_, rows_);
    outcome_.set_record("trace_events", std::to_string(trace.events.size()));
    outcome_.set_record("workload_checksum", std::to_string(trace.checksum));
    outcome_.set_record("store_events", std::to_string(store.num_events()));
    outcome_.set_record("sweep_digest", hex(rows_digest(rows_)));
    std::string best;
    double r2_min = 1.0;
    for (const std::string& metric : gmd::dse::target_metric_names()) {
      const gmd::dse::SurrogateScore& score = suite.best_model(metric);
      best += metric + ":" + score.model + ";";
      outcome_.set_record("r2." + metric, fmt(score.r2));
      r2_min = std::min(r2_min, score.r2);
    }
    outcome_.set_record("table1_best", best);
    outcome_.set_record("recommend_sweep", recommendation_ids(from_sweep));
    outcome_.set_record("recommend_surrogate",
                        recommendation_ids(from_surrogate));
    r2_min_ = r2_min;
    last_trace_ = std::move(trace.events);
    last_checksum_ = trace.checksum;
  }

  void finish(bool traced) override {
    outcome_.value("surrogate_r2_min", r2_min_);

    // The handed-in graph reproduces generate_workload_trace exactly.
    gmd::dse::WorkflowConfig config;
    config.graph_vertices = 1024;
    config.edge_factor = 16;
    config.seed = config_.seed;
    std::uint64_t checksum = 0;
    const std::vector<MemoryEvent> reference =
        gmd::dse::generate_workload_trace(config, nullptr, &checksum);
    outcome_.check("trace_matches_generate_workload_trace",
                   reference.size() == last_trace_.size() &&
                       checksum == last_checksum_ &&
                       events_digest(reference) == events_digest(last_trace_));

    const gmd::tracestore::TraceStoreReader store(store_path_);
    outcome_.check("store_holds_every_event",
                   store.num_events() == last_trace_.size());
    outcome_.check("sweep_rows_all_ok",
                   std::all_of(rows_.begin(), rows_.end(),
                               [](const SweepRow& r) { return r.ok(); }));
    outcome_.check("sweep_row_count", rows_.size() == 416);
    check_against_simulate_point(outcome_, store, rows_,
                                 one_row_per_kind(rows_),
                                 "sweep_rows_equal_simulate_point");

    if (traced) {
      // One train call per family gives each family's fit time.
      for (const char* family : {"linear", "svr", "rf", "gb"}) {
        Scope span(tracer(), std::string("ml.fit.") + family, 0, true);
        gmd::dse::SurrogateOptions options;
        options.models = {family};
        options.num_threads = config_.threads;
        (void)gmd::dse::SurrogateSuite::train(rows_, options);
      }
    }
  }

 private:
  static std::string recommendation_ids(
      const std::vector<gmd::dse::Recommendation>& recs) {
    std::string out;
    for (const gmd::dse::Recommendation& rec : recs) {
      out += rec.metric + "=" + rec.best.id() + ";";
    }
    return out;
  }

  RunConfig config_;
  std::vector<DesignPoint> points_;
  std::string gem5_path_;
  std::string store_path_;
  gmd::graph::CsrGraph graph_;
  gmd::graph::VertexId source_ = 0;
  std::vector<SweepRow> rows_;
  std::vector<MemoryEvent> last_trace_;
  std::uint64_t last_checksum_ = 0;
  double r2_min_ = 0.0;
};

// --- replay_long ----------------------------------------------------------

/// A 4.65M-event BFS trace packed straight into a GMDT store and
/// replayed over the 26 paper points at 5000 MHz CPU / 1600 MHz
/// controller.  No training runs.
class ReplayLong final : public Workload {
 public:
  explicit ReplayLong(const RunConfig& config)
      : config_(config), store_path_(config.work_dir + "/long.gmdt") {
    for (const DesignPoint& p : gmd::dse::paper_design_space()) {
      if (p.cpu_freq_mhz == 5000 && p.ctrl_freq_mhz == 1600) {
        points_.push_back(p);
      }
    }
  }

  void setup() override {
    graph_ = build_graph(65536, config_.seed);
    source_ = bfs_source(graph_, config_.seed);
  }

  void run_pass(int, bool traced, std::uint64_t pass_span) override {
    std::uint64_t events = 0;
    {
      BfsTrace trace = run_bfs(graph_, source_, pass_span);
      events = trace.events.size();
      Scope span(tracer(), "tracestore.pack", pass_span, false);
      gmd::tracestore::write_trace_store(store_path_, trace.events);
      span.attr("events", static_cast<double>(events));
      span.attr("bytes", static_cast<double>(
                             std::filesystem::file_size(store_path_)));
      outcome_.set_record("workload_checksum", std::to_string(trace.checksum));
    }
    const gmd::tracestore::TraceStoreReader store(store_path_);
    rows_ = traced_sweep(points_, store, config_.threads, traced, pass_span);

    count_rows(outcome_, rows_);
    outcome_.set_record("trace_events", std::to_string(events));
    outcome_.set_record("store_events", std::to_string(store.num_events()));
    outcome_.set_record("sweep_digest", hex(rows_digest(rows_)));
  }

  void finish(bool) override {
    outcome_.check("sweep_row_count", rows_.size() == 26);
    outcome_.check("sweep_rows_all_ok",
                   std::all_of(rows_.begin(), rows_.end(),
                               [](const SweepRow& r) { return r.ok(); }));
  }

 private:
  RunConfig config_;
  std::string store_path_;
  std::vector<DesignPoint> points_;
  gmd::graph::CsrGraph graph_;
  gmd::graph::VertexId source_ = 0;
  std::vector<SweepRow> rows_;
};

// --- explore_million ------------------------------------------------------

/// The RF/EI explorer over the 1,043,200-point lazy space with a
/// 128-simulation budget on the paper BFS trace.
class ExploreMillion final : public Workload {
 public:
  explicit ExploreMillion(const RunConfig& config)
      : config_(config), space_(gmd::dse::LazySpace::million_axes()) {}

  void setup() override {
    graph_ = build_graph(1024, config_.seed);
    source_ = bfs_source(graph_, config_.seed);
  }

  void run_pass(int, bool traced, std::uint64_t pass_span) override {
    const BfsTrace trace = run_bfs(graph_, source_, pass_span);

    gmd::dse::ExplorerOptions options;
    options.model = "rf";
    options.acquisition = gmd::dse::Acquisition::kExpectedImprovement;
    options.initial_samples = 32;
    options.batch_size = 16;
    options.simulation_budget = 128;
    options.num_threads = config_.threads;
    options.sweep.num_threads = config_.threads;
    gmd::dse::ExplorerResult result;
    {
      Scope span(tracer(), "explorer", pass_span, true);
      if (traced) {
        attach_memsim_spans(options.sweep, span.id(),
                            static_cast<double>(trace.events.size()));
        const std::uint64_t parent = span.id();
        auto last = std::make_shared<double>(now_s());
        options.round_hook = [parent, last](std::size_t completed) {
          Span round;
          round.name = "explorer.round";
          round.parent = parent;
          round.t0 = *last;
          round.t1 = now_s();
          round.attrs = {{"round", static_cast<double>(completed)}};
          *last = round.t1;
          tracer().record(std::move(round));
        };
      }
      result = gmd::dse::run_explorer(space_, trace.events, options);
      span.attr("rounds", static_cast<double>(result.rounds.size()));
      span.attr("simulations", static_cast<double>(result.labeled.size()));
      span.attr("rows_scored", static_cast<double>(result.stream.scored));
    }

    std::size_t ok = 0;
    for (const auto& [index, row] : result.labeled) {
      if (row.ok()) ++ok;
    }
    outcome_.attempted += result.labeled.size();
    outcome_.failed += result.labeled.size() - ok;
    labeled_ = result.labeled.size();
    const double best = result.rounds.empty() ? 0.0
                                              : result.rounds.back().best_value;

    gmd::Fnv1a top;
    for (const gmd::dse::ScoredPoint& p : result.top) top.mix(p.index);
    gmd::Fnv1a labeled;
    for (const auto& [index, row] : result.labeled) {
      labeled.mix(index);
      mix_metrics(labeled, row.metrics);
    }
    outcome_.set_record("trace_events", std::to_string(trace.events.size()));
    outcome_.set_record("labeled_digest", hex(labeled.state));
    outcome_.set_record("top10_digest", hex(top.state));
    outcome_.set_record("best_found_cycles", fmt(best));
    best_ = best;
  }

  void finish(bool) override {
    outcome_.check("labeled_points", labeled_ == 128,
                   std::to_string(labeled_) + " labelled");
    outcome_.value("best_found_cycles", best_);
  }

 private:
  RunConfig config_;
  gmd::dse::LazySpace space_;
  gmd::graph::CsrGraph graph_;
  gmd::graph::VertexId source_ = 0;
  std::size_t labeled_ = 0;
  double best_ = 0.0;
};

// --- serve_mixed ----------------------------------------------------------

/// Requests per pass, dealt round-robin to the clients, so the request
/// set does not depend on the client count.
constexpr std::size_t kRequestsPerPass = 3200;
/// Zipf exponent over the 416 paper points for simulate requests.
constexpr double kZipfExponent = 1.1;

struct Request {
  std::string verb;
  std::string line;
  std::vector<std::size_t> points;  ///< Paper-grid indices it names.
};

/// An in-process service::Service with the paper BFS store and a
/// deployed gb bandwidth_mbs model.  nproc closed-loop clients each send
/// their next request only after the previous reply: 60% single-point
/// simulate (Zipf over the paper grid, mostly cache hits), 25% predict
/// of 256 points, 12% recommend, 3% stats.  Each pass starts a fresh
/// service, so every pass sees the same cold-to-warm cache history.
class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const RunConfig& config)
      : config_(config),
        points_(gmd::dse::paper_design_space()),
        store_path_(config.work_dir + "/serve.gmdt"),
        model_path_(config.work_dir + "/bw.gmdm") {}

  void setup() override {
    const gmd::graph::CsrGraph graph = build_graph(1024, config_.seed);
    const BfsTrace trace = run_bfs(graph, bfs_source(graph, config_.seed), 0);
    {
      Scope span(tracer(), "tracestore.pack", 0, false);
      gmd::tracestore::write_trace_store(store_path_, trace.events);
      span.attr("events", static_cast<double>(trace.events.size()));
      span.attr("bytes", static_cast<double>(
                             std::filesystem::file_size(store_path_)));
    }
    {
      const gmd::tracestore::TraceStoreReader store(store_path_);
      gmd::dse::SweepOptions options;
      options.num_threads = config_.threads;
      const std::vector<SweepRow> rows =
          gmd::dse::run_sweep(points_, store, options);
      gmd::dse::SurrogateSuite::deploy(rows, "bandwidth_mbs", "gb", 1,
                                       config_.threads)
          .save_file(model_path_);
    }
    auto service = start_service();
    service->drain();
  }

  void prepare() override {
    // Zipf popularity over a seeded permutation of the grid, so each
    // seed makes different points hot.
    gmd::Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL + 11);
    std::vector<std::size_t> order(points_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    std::vector<double> cdf(points_.size());
    double total = 0.0;
    for (std::size_t r = 0; r < cdf.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf[r] = total;
    }
    const auto zipf = [&]() {
      const double u = rng.next_double() * total;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      return order[std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1)];
    };

    clients_.assign(config_.threads, {});
    for (std::size_t id = 0; id < kRequestsPerPass; ++id) {
      const double u = rng.next_double();
      Request request;
      gmd::service::Json body;
      body["id"] = id;
      if (u < 0.60) {
        request.verb = "simulate";
        request.points = {zipf()};
        body["trace"] = "bfs";
      } else if (u < 0.85) {
        request.verb = "predict";
        for (int i = 0; i < 256; ++i) {
          request.points.push_back(rng.next_below(points_.size()));
        }
        body["model"] = "bw";
      } else if (u < 0.97) {
        request.verb = "recommend";
        body["metric"] = "bandwidth_mbs";
        body["model"] = "bw";
      } else {
        request.verb = "stats";
      }
      body["verb"] = request.verb;
      if (!request.points.empty()) {
        gmd::service::Json::Array pts;
        for (const std::size_t i : request.points) {
          pts.push_back(gmd::service::design_point_to_json(points_[i]));
        }
        body["points"] = gmd::service::Json(std::move(pts));
      }
      request.line = body.dump();
      clients_[id % clients_.size()].push_back(std::move(request));
    }
  }

  void before_pass(int) override {
    service_ = start_service();
    responses_.assign(clients_.size(), {});
    latency_ms_.assign(clients_.size(), {});
  }

  void run_pass(int, bool, std::uint64_t pass_span) override {
    Scope span(tracer(), "service.clients", pass_span, true);
    std::barrier start(static_cast<std::ptrdiff_t>(clients_.size()));
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([this, c, &start] {
        responses_[c].reserve(clients_[c].size());
        latency_ms_[c].reserve(clients_[c].size());
        start.arrive_and_wait();
        for (const Request& request : clients_[c]) {
          const double t0 = now_s();
          std::string response = service_->handle(request.line);
          latency_ms_[c].push_back((now_s() - t0) * 1e3);
          responses_[c].push_back(std::move(response));
        }
      });
    }
  }

  void after_pass(int pass) override {
    const gmd::service::Json stats = service_->stats_json();
    service_->drain();
    service_.reset();
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      for (std::size_t k = 0; k < clients_[c].size(); ++k) {
        record_response(clients_[c][k], responses_[c][k], latency_ms_[c][k],
                        pass);
      }
    }
    hit_rate_ = stats.at("cache").at("hit_rate").as_number();
    rejected_ = stats.at("scheduler").at("rejected").as_number();
  }

  void finish(bool) override {
    outcome_.value("service_cache_hit_rate", hit_rate_);
    outcome_.value("service_rejected", rejected_);
    outcome_.check("responses_parse", malformed_ == 0,
                   std::to_string(malformed_) + " malformed");
    outcome_.check("simulate_answers_repeat", simulate_mismatch_ == 0,
                   std::to_string(simulate_mismatch_) + " differ");
    outcome_.check("predict_answers_repeat", predict_mismatch_ == 0,
                   std::to_string(predict_mismatch_) + " differ");

    // Every distinct simulate answer equals dse::simulate_point on the
    // same store, computed here outside the timed phase.
    const gmd::tracestore::TraceStoreReader store(store_path_);
    std::vector<std::size_t> distinct;
    for (const auto& [index, metrics] : simulate_answers_) {
      distinct.push_back(index);
    }
    std::vector<char> equal(distinct.size(), 0);
    {
      std::vector<std::jthread> threads;
      for (std::size_t t = 0; t < config_.threads; ++t) {
        threads.emplace_back([&, t] {
          for (std::size_t i = t; i < distinct.size(); i += config_.threads) {
            const std::size_t index = distinct[i];
            try {
              equal[i] = gmd::dse::simulate_point(store, points_[index])
                             .metrics.metric_values() ==
                         simulate_answers_.at(index);
            } catch (const std::exception&) {
              equal[i] = 0;  // A failed reference simulation fails the check.
            }
          }
        });
      }
    }
    const auto wrong = std::count(equal.begin(), equal.end(), 0);
    outcome_.check("simulate_equals_simulate_point", wrong == 0,
                   std::to_string(wrong) + " of " +
                       std::to_string(distinct.size()) + " differ");

    // Predict answers equal DeployedModel::predict on the same points.
    const auto model =
        gmd::dse::SurrogateSuite::DeployedModel::load_file(model_path_);
    std::size_t predict_wrong = 0;
    for (const auto& [points, values] : predict_answers_) {
      std::vector<DesignPoint> batch;
      for (const std::size_t i : points) batch.push_back(points_[i]);
      if (model.predict(batch) != values) ++predict_wrong;
    }
    outcome_.check("predict_equals_deployed_model", predict_wrong == 0,
                   std::to_string(predict_wrong) + " of " +
                       std::to_string(predict_answers_.size()) + " differ");
    outcome_.check("simulate_answers_seen", !simulate_answers_.empty());
    outcome_.set_record("distinct_simulated",
                        std::to_string(simulate_answers_.size()));
  }

 private:
  std::unique_ptr<gmd::service::Service> start_service() {
    Scope span(tracer(), "service.register", 0, false);
    gmd::service::ServiceOptions options;
    options.num_threads = config_.threads;
    auto service = std::make_unique<gmd::service::Service>(options);
    service->traces().register_store("bfs", store_path_);
    service->models().register_model("bw", model_path_);
    return service;
  }

  void record_response(const Request& request, const std::string& text,
                       double ms, int pass) {
    RequestSample sample;
    sample.verb = request.verb;
    sample.ms = ms;
    sample.pass = pass;
    try {
      const gmd::service::Json response = gmd::service::Json::parse(text);
      sample.ok = response.at("ok").as_bool();
      if (!sample.ok) {
        sample.error = response.at("error").at("code").as_string();
      } else if (request.verb == "simulate") {
        const gmd::service::Json& row = response.at("rows").as_array().at(0);
        sample.cached = row.at("cached").as_bool();
        std::vector<double> values;
        for (const std::string& name :
             gmd::memsim::MemoryMetrics::metric_names()) {
          values.push_back(row.at("metrics").at(name).as_number());
        }
        const auto [it, inserted] =
            simulate_answers_.emplace(request.points[0], values);
        if (!inserted && it->second != values) ++simulate_mismatch_;
      } else if (request.verb == "predict") {
        std::vector<double> values;
        for (const gmd::service::Json& v :
             response.at("values").as_array()) {
          values.push_back(v.as_number());
        }
        const auto [it, inserted] =
            predict_answers_.emplace(request.points, values);
        if (!inserted && it->second != values) ++predict_mismatch_;
      }
    } catch (const std::exception&) {
      ++malformed_;
      sample.ok = false;
      sample.error = "malformed-response";
    }
    outcome_.requests.push_back(std::move(sample));
  }

  RunConfig config_;
  std::vector<DesignPoint> points_;
  std::string store_path_;
  std::string model_path_;
  std::vector<std::vector<Request>> clients_;
  std::map<std::size_t, std::vector<double>> simulate_answers_;
  std::map<std::vector<std::size_t>, std::vector<double>> predict_answers_;
  std::size_t simulate_mismatch_ = 0;
  std::size_t predict_mismatch_ = 0;
  std::size_t malformed_ = 0;
  std::unique_ptr<gmd::service::Service> service_;
  std::vector<std::vector<std::string>> responses_;
  std::vector<std::vector<double>> latency_ms_;
  double hit_rate_ = 0.0;
  double rejected_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const RunConfig& config) {
  if (config.workload == "paper_bfs") return std::make_unique<PaperBfs>(config);
  if (config.workload == "replay_long") {
    return std::make_unique<ReplayLong>(config);
  }
  if (config.workload == "explore_million") {
    return std::make_unique<ExploreMillion>(config);
  }
  if (config.workload == "serve_mixed") {
    return std::make_unique<ServeMixed>(config);
  }
  throw std::runtime_error("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
