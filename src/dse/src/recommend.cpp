#include "gmd/dse/recommend.hpp"

#include <exception>
#include <sstream>

#include "gmd/common/error.hpp"
#include "gmd/common/string_util.hpp"
#include "gmd/common/thread_pool.hpp"

namespace gmd::dse {

Direction metric_direction(const std::string& metric) {
  if (metric == "bandwidth_mbs") return Direction::kMaximize;
  // Power, latencies, and reads/writes (endurance pressure) improve
  // when lower.
  return Direction::kMinimize;
}

namespace {

bool better(Direction direction, double candidate, double incumbent) {
  return direction == Direction::kMinimize ? candidate < incumbent
                                           : candidate > incumbent;
}

std::string describe_point(const DesignPoint& p) {
  std::ostringstream os;
  os << to_string(p.kind) << " with " << p.channels << " channels, "
     << p.cpu_freq_mhz << " MHz CPU, " << p.ctrl_freq_mhz
     << " MHz controller";
  if (p.kind != MemoryKind::kDram) os << ", tRCD " << p.trcd;
  return os.str();
}

}  // namespace

std::vector<Recommendation> recommend_from_sweep(
    std::span<const SweepRow> rows) {
  GMD_REQUIRE(!rows.empty(), "cannot recommend from an empty sweep");
  std::vector<Recommendation> recs;
  const auto& metrics = target_metric_names();
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    const Direction direction = metric_direction(metrics[m]);
    const SweepRow* best = &rows[0];
    for (const SweepRow& row : rows) {
      if (better(direction, row.metrics.metric_values()[m],
                 best->metrics.metric_values()[m])) {
        best = &row;
      }
    }
    Recommendation rec;
    rec.metric = metrics[m];
    rec.best = best->point;
    rec.value = best->metrics.metric_values()[m];
    std::ostringstream os;
    os << "simulated optimum across " << rows.size() << " configurations";
    rec.rationale = os.str();
    recs.push_back(std::move(rec));
  }
  return recs;
}

std::vector<Recommendation> recommend_from_surrogate(
    std::span<const SweepRow> labeled,
    std::span<const DesignPoint> candidates, const std::string& model_name,
    std::size_t num_threads) {
  GMD_REQUIRE(!candidates.empty(), "no candidate design points");
  const auto& metrics = target_metric_names();
  std::vector<Recommendation> recs(metrics.size());
  std::vector<std::exception_ptr> errors(metrics.size());
  ThreadPool pool(num_threads);
  pool.parallel_for(0, metrics.size(), [&](std::size_t m) {
    try {
      const auto deployed =
          SurrogateSuite::deploy(labeled, metrics[m], model_name, 1, 1);
      const Direction direction = metric_direction(metrics[m]);
      // One batch prediction over the whole candidate set; the champion
      // scan in index order makes the same comparisons the per-candidate
      // loop made.
      const std::vector<double> values = deployed.predict(candidates);
      std::size_t best_idx = 0;
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        if (better(direction, values[i], values[best_idx])) best_idx = i;
      }
      Recommendation& rec = recs[m];
      rec.metric = metrics[m];
      rec.best = candidates[best_idx];
      rec.value = values[best_idx];
      rec.rationale = "predicted optimum by the '" + model_name +
                      "' surrogate over " +
                      std::to_string(candidates.size()) + " candidates";
    } catch (...) {
      errors[m] = std::current_exception();
    }
  });
  // Whichever worker failed first, report the first failure in metric
  // order, so the error does not depend on the pool width.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return recs;
}

std::string format_recommendations(std::span<const Recommendation> recs) {
  std::ostringstream os;
  os << "Co-design recommendations for the graph workload:\n";
  for (const Recommendation& rec : recs) {
    const bool maximize = metric_direction(rec.metric) == Direction::kMaximize;
    os << "  - For " << (maximize ? "best " : "lowest ") << rec.metric
       << ": use " << describe_point(rec.best) << " ("
       << format_fixed(rec.value, rec.value < 10.0 ? 4 : 2) << "; "
       << rec.rationale << ").\n";
  }
  return os.str();
}

}  // namespace gmd::dse
