#pragma once

/// \file surrogate.hpp
/// The surrogate-modeling stage: trains the paper's four model families
/// on each target metric (80/20 split, min-max scaling), evaluates MSE
/// and R² on the held-out set (Table I), and keeps the per-test-index
/// predictions (Figure 3 series).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gmd/dse/dataset_builder.hpp"
#include "gmd/ml/regressor.hpp"

namespace gmd::dse {

/// One Table I cell pair: a (metric, model) evaluation.
struct SurrogateScore {
  std::string metric;
  std::string model;
  double mse = 0.0;  ///< On the scaled targets, as in the paper.
  double r2 = 0.0;
};

/// Figure 3 material for one metric: the ground-truth test series and
/// each model's prediction series (scaled units, test-index order).
struct PredictionSeries {
  std::string metric;
  std::vector<double> truth;
  std::map<std::string, std::vector<double>> predictions;  // by model
};

struct SurrogateOptions {
  std::vector<std::string> models;  ///< Empty: the paper's four families.
  double test_fraction = 0.2;
  std::uint64_t seed = 1;
  /// Cooperative cancellation: polled before each metric and each
  /// (metric, model) fit, and wired into the tree-ensemble training
  /// loops (rf per tree, gb per stage).  Pool workers use the
  /// thread-safe check_now() only.  Non-owning; must outlive train().
  Deadline* deadline = nullptr;
  /// Width of the (metric, model) fan-out: the independent fits run
  /// over one pool of this many workers (0: hardware concurrency,
  /// 1: serial), and each fit inside it runs serially.  Results,
  /// skips and the error that escapes are bit-identical for any value.
  std::size_t num_threads = 0;
  /// Degraded mode: a metric whose dataset build or model training
  /// fails is recorded in skipped() and training continues with the
  /// remaining metrics, instead of the whole suite aborting.  Timeouts
  /// and cancellations still propagate — they mean "stop", not "this
  /// metric is bad".  Off by default: tests and small runs should see
  /// every failure.
  bool skip_failed_metrics = false;
};

/// Results of training all models on all metrics.
class SurrogateSuite {
 public:
  /// A metric that could not be trained under skip_failed_metrics,
  /// with the typed error that felled it.
  struct SkippedMetric {
    std::string metric;
    ErrorCode code = ErrorCode::kUnspecified;
    std::string error;
  };

  /// Trains and evaluates on the sweep results.
  static SurrogateSuite train(std::span<const SweepRow> rows,
                              const SurrogateOptions& options = {});

  const std::vector<SurrogateScore>& scores() const { return scores_; }
  const std::vector<PredictionSeries>& series() const { return series_; }

  /// Metrics skipped in degraded mode (empty unless
  /// SurrogateOptions::skip_failed_metrics caught failures).
  const std::vector<SkippedMetric>& skipped() const { return skipped_; }

  /// Rows quarantined per metric during dataset builds (only metrics
  /// with a nonzero count appear).
  const std::map<std::string, std::size_t>& quarantined() const {
    return quarantined_;
  }

  /// The score for one (metric, model) pair; throws when absent.
  const SurrogateScore& score(const std::string& metric,
                              const std::string& model) const;

  /// Best model (lowest MSE) for a metric.
  const SurrogateScore& best_model(const std::string& metric) const;

  /// A fitted model trained on ALL rows of `metric` (for deployment /
  /// recommendation), plus its scalers.  Models are retrained on the
  /// full data after evaluation, as a production workflow would.
  struct DeployedModel {
    std::unique_ptr<ml::Regressor> model;
    ml::MinMaxScaler x_scaler;
    ml::MinMaxScaler y_scaler;

    /// Predicts the metric in physical units for a design point.
    double predict(const DesignPoint& point) const;

    /// Batch variant over many design points: one matrix build, one
    /// scaler pass, one batch model predict — the same values as the
    /// per-point overload without its per-candidate overhead.
    std::vector<double> predict(std::span<const DesignPoint> points) const;

    /// Persists model + both scalers as one text artifact (.gmdm) so a
    /// deployed surrogate can be shipped to the query service and
    /// loaded without the training sweep.  save_file is atomic
    /// (temp-then-rename); loaded models predict bit-identically to
    /// the saved one.  Throws gmd::Error for unserializable families
    /// (gp) or malformed input.
    void save(std::ostream& os) const;
    void save_file(const std::string& path) const;
    static DeployedModel load(std::istream& is);
    static DeployedModel load_file(const std::string& path);
  };
  /// Trains a deployment model of `model_name` on every row.
  static DeployedModel deploy(std::span<const SweepRow> rows,
                              const std::string& metric,
                              const std::string& model_name,
                              std::uint64_t seed = 1,
                              std::size_t num_threads = 0);

  /// Renders Table I: rows = metrics, columns = models, MSE and R².
  /// Metrics skipped in degraded mode are omitted from the body and
  /// reported in footer lines, along with quarantine counts.
  std::string format_table1() const;

 private:
  std::vector<SurrogateScore> scores_;
  std::vector<PredictionSeries> series_;
  std::vector<SkippedMetric> skipped_;
  std::map<std::string, std::size_t> quarantined_;
};

}  // namespace gmd::dse
