#pragma once

/// \file recommend.hpp
/// The co-design recommendation stage (§IV-B): for each response
/// metric, find the best design point — either directly from simulated
/// results or through a trained surrogate over a (possibly larger)
/// candidate space — and render the paper-style recommendation text.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "gmd/dse/surrogate.hpp"
#include "gmd/dse/sweep.hpp"

namespace gmd::dse {

/// Whether a metric is minimized or maximized when "better".
enum class Direction { kMinimize, kMaximize };
Direction metric_direction(const std::string& metric);

struct Recommendation {
  std::string metric;
  DesignPoint best;
  double value = 0.0;      ///< Metric value at `best` (physical units).
  std::string rationale;   ///< One-sentence explanation.
};

/// Picks the best simulated point per metric.
std::vector<Recommendation> recommend_from_sweep(
    std::span<const SweepRow> rows);

/// Picks the best point per metric by *surrogate prediction* over a
/// candidate space (the ML-accelerated DSE the paper proposes): trains
/// the chosen model family on `labeled` rows, scores `candidates`.
/// The per-metric deploy + score + argmin tasks run over a pool of
/// `num_threads` workers (0: hardware concurrency, 1: serial), each
/// fitting serially; recommendations are identical for any value, and
/// a failure rethrows the first failing metric's error in metric order.
std::vector<Recommendation> recommend_from_surrogate(
    std::span<const SweepRow> labeled,
    std::span<const DesignPoint> candidates,
    const std::string& model_name = "svr", std::size_t num_threads = 0);

/// Paper-style report: the §IV-B bullet list.
std::string format_recommendations(std::span<const Recommendation> recs);

}  // namespace gmd::dse
