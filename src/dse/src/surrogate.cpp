#include "gmd/dse/surrogate.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <sstream>
#include <tuple>

#include "gmd/common/atomic_file.hpp"
#include "gmd/common/deadline.hpp"
#include "gmd/common/error.hpp"
#include "gmd/common/faultinject.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/common/string_util.hpp"
#include "gmd/common/thread_pool.hpp"
#include "gmd/ml/metrics.hpp"
#include "gmd/ml/serialize.hpp"

namespace gmd::dse {

namespace {

/// True when a metric's error must escape train() instead of being
/// recorded as a skip: every error outside degraded mode, and always
/// kTimeout/kCancelled, which mean "stop training", not "this metric
/// is bad".  Exceptions that are not a gmd::Error always escape.
bool stops_training(const Error& e, bool skip_failed_metrics) {
  return !skip_failed_metrics || e.code() == ErrorCode::kTimeout ||
         e.code() == ErrorCode::kCancelled;
}

/// One metric's held-out split, built on the caller thread.
struct MetricJob {
  ml::Dataset train_set;
  ml::Dataset test_set;
  std::size_t quarantined_rows = 0;
  std::exception_ptr error;
};

/// One (metric, model) fit, written by exactly one pool task.
struct FitSlot {
  SurrogateScore score;
  std::vector<double> predicted;
  std::exception_ptr error;
};

}  // namespace

SurrogateSuite SurrogateSuite::train(std::span<const SweepRow> rows,
                                     const SurrogateOptions& options) {
  GMD_REQUIRE(rows.size() >= 10, "need at least 10 sweep rows to train");
  const std::vector<std::string> models =
      options.models.empty() ? ml::table1_model_names() : options.models;
  const std::vector<std::string>& metrics = target_metric_names();

  // Datasets and splits, in metric order on the caller thread.  A
  // failure is held as that metric's error; one that must propagate
  // ends the loop, because no later metric could ever be reported.
  std::vector<MetricJob> jobs(metrics.size());
  std::size_t reached = metrics.size();
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    try {
      if (options.deadline != nullptr) options.deadline->check_now();
      const MetricDataset metric_data = build_metric_dataset(rows, metrics[m]);
      jobs[m].quarantined_rows = metric_data.quarantined_rows;
      std::tie(jobs[m].train_set, jobs[m].test_set) = ml::train_test_split(
          metric_data.data, options.test_fraction, options.seed);
    } catch (const Error& e) {
      jobs[m].error = std::current_exception();
      if (stops_training(e, options.skip_failed_metrics)) {
        reached = m + 1;
        break;
      }
    } catch (...) {
      jobs[m].error = std::current_exception();
      reached = m + 1;
      break;
    }
  }

  // The (metric, model) fits are independent: fan them over one pool,
  // each fitting serially, into per-task slots.
  std::vector<FitSlot> slots(reached * models.size());
  ThreadPool pool(options.num_threads);
  pool.parallel_for(0, slots.size(), [&](std::size_t t) {
    const MetricJob& job = jobs[t / models.size()];
    if (job.error) return;
    FitSlot& slot = slots[t];
    try {
      if (options.deadline != nullptr) options.deadline->check_now();
      slot.score.metric = metrics[t / models.size()];
      slot.score.model = models[t % models.size()];
      const auto model = ml::make_regressor(slot.score.model, options.seed,
                                            options.deadline, 1);
      model->fit(job.train_set.X, job.train_set.y);
      slot.predicted = model->predict(job.test_set.X);
      slot.score.mse = ml::mse(job.test_set.y, slot.predicted);
      slot.score.r2 = ml::r2_score(job.test_set.y, slot.predicted);
    } catch (...) {
      slot.error = std::current_exception();
    }
  });

  // Merge in (metric, model) order on the caller thread, so the suite,
  // its log lines and the error that escapes do not depend on the pool
  // width.  A metric's error is its dataset's, else its first failing
  // model's.
  SurrogateSuite suite;
  for (std::size_t m = 0; m < reached; ++m) {
    MetricJob& job = jobs[m];
    if (job.quarantined_rows > 0) {
      suite.quarantined_[metrics[m]] = job.quarantined_rows;
    }
    std::exception_ptr error = job.error;
    for (std::size_t k = 0; k < models.size() && !error; ++k) {
      error = slots[m * models.size() + k].error;
    }
    if (error) {
      try {
        std::rethrow_exception(error);
      } catch (const Error& e) {
        if (stops_training(e, options.skip_failed_metrics)) throw;
        GMD_LOG_WARN << "surrogate training: skipping metric '" << metrics[m]
                     << "' [" << to_string(e.code()) << "]: " << e.what();
        suite.skipped_.push_back(SkippedMetric{metrics[m], e.code(), e.what()});
      }
      continue;
    }

    PredictionSeries series;
    series.metric = metrics[m];
    series.truth = std::move(job.test_set.y);
    for (std::size_t k = 0; k < models.size(); ++k) {
      FitSlot& slot = slots[m * models.size() + k];
      suite.scores_.push_back(slot.score);
      series.predictions[models[k]] = std::move(slot.predicted);
    }
    suite.series_.push_back(std::move(series));
  }
  GMD_REQUIRE(!suite.scores_.empty(),
              "surrogate training failed for every metric");
  return suite;
}

const SurrogateScore& SurrogateSuite::score(const std::string& metric,
                                            const std::string& model) const {
  for (const SurrogateScore& s : scores_) {
    if (s.metric == metric && s.model == model) return s;
  }
  throw Error("no score for metric '" + metric + "', model '" + model + "'");
}

const SurrogateScore& SurrogateSuite::best_model(
    const std::string& metric) const {
  const SurrogateScore* best = nullptr;
  for (const SurrogateScore& s : scores_) {
    if (s.metric != metric) continue;
    if (best == nullptr || s.mse < best->mse) best = &s;
  }
  GMD_REQUIRE(best != nullptr, "no scores for metric '" << metric << "'");
  return *best;
}

double SurrogateSuite::DeployedModel::predict(const DesignPoint& point) const {
  GMD_REQUIRE(model != nullptr && model->is_fitted(),
              "deployed model is not fitted");
  const std::vector<double> raw = point.features();
  ml::Matrix x(1, raw.size());
  std::copy(raw.begin(), raw.end(), x.row(0).begin());
  const ml::Matrix scaled = x_scaler.transform(x);
  const double y_scaled = model->predict_one(scaled.row(0));
  const std::vector<double> y =
      y_scaler.inverse_transform(std::vector<double>{y_scaled});
  return y[0];
}

std::vector<double> SurrogateSuite::DeployedModel::predict(
    std::span<const DesignPoint> points) const {
  GMD_REQUIRE(model != nullptr && model->is_fitted(),
              "deployed model is not fitted");
  if (points.empty()) return {};
  const std::size_t features = points[0].features().size();
  ml::Matrix x(points.size(), features);
  for (std::size_t r = 0; r < points.size(); ++r) {
    const std::vector<double> raw = points[r].features();
    GMD_REQUIRE(raw.size() == features, "inconsistent feature counts");
    std::copy(raw.begin(), raw.end(), x.row(r).begin());
  }
  const ml::Matrix scaled = x_scaler.transform(x);
  const std::vector<double> y_scaled = model->predict(scaled);
  return y_scaler.inverse_transform(y_scaled);
}

void SurrogateSuite::DeployedModel::save(std::ostream& os) const {
  GMD_REQUIRE(model != nullptr && model->is_fitted(),
              "deployed model is not fitted");
  os << "gmd-deployed-v1\n";
  ml::save_scaler(os, x_scaler);
  ml::save_scaler(os, y_scaler);
  ml::save_model(os, *model);
}

void SurrogateSuite::DeployedModel::save_file(const std::string& path) const {
  atomic_write_file(path, [this](std::ostream& out) { save(out); });
}

SurrogateSuite::DeployedModel SurrogateSuite::DeployedModel::load(
    std::istream& is) {
  GMD_FAULT_POINT("surrogate.model_load");
  std::string header;
  is >> header;
  GMD_REQUIRE_AS(ErrorCode::kInvalidData,
                 is.good() && header == "gmd-deployed-v1",
                 "not a graphmemdse deployed-model file");
  DeployedModel deployed;
  deployed.x_scaler = ml::load_scaler(is);
  deployed.y_scaler = ml::load_scaler(is);
  deployed.model = ml::load_model(is);
  return deployed;
}

SurrogateSuite::DeployedModel SurrogateSuite::DeployedModel::load_file(
    const std::string& path) {
  std::ifstream in(path);
  GMD_REQUIRE_AS(ErrorCode::kIo, in.good(),
                 "cannot open '" << path << "' for reading");
  return load(in);
}

SurrogateSuite::DeployedModel SurrogateSuite::deploy(
    std::span<const SweepRow> rows, const std::string& metric,
    const std::string& model_name, std::uint64_t seed,
    std::size_t num_threads) {
  MetricDataset metric_data = build_metric_dataset(rows, metric);
  DeployedModel deployed;
  deployed.model = ml::make_regressor(model_name, seed, nullptr, num_threads);
  deployed.model->fit(metric_data.data.X, metric_data.data.y);
  deployed.x_scaler = std::move(metric_data.x_scaler);
  deployed.y_scaler = std::move(metric_data.y_scaler);
  return deployed;
}

std::string SurrogateSuite::format_table1() const {
  // Model column order mirrors the paper: Linear, SVM, RF, GB.
  std::vector<std::string> models;
  for (const SurrogateScore& s : scores_) {
    if (std::find(models.begin(), models.end(), s.model) == models.end()) {
      models.push_back(s.model);
    }
  }

  std::ostringstream os;
  os << "TABLE I: ML model performance on the graph benchmark\n";
  os << "metric                | stat |";
  for (const auto& m : models) {
    os << "  " << m
       << std::string(10 - std::min<std::size_t>(m.size(), 9), ' ') << "|";
  }
  os << "\n";
  for (const std::string& metric : target_metric_names()) {
    // A metric skipped in degraded mode has no scores; it is reported
    // in the footer instead of rendering a row of holes.
    const bool have_scores = std::any_of(
        scores_.begin(), scores_.end(),
        [&metric](const SurrogateScore& s) { return s.metric == metric; });
    if (!have_scores) continue;
    os << metric << std::string(metric.size() < 22 ? 22 - metric.size() : 1, ' ')
       << "| MSE  |";
    for (const auto& m : models) {
      os << " " << format_sci(score(metric, m).mse, 2) << " |";
    }
    os << "\n" << std::string(22, ' ') << "| R2   |";
    for (const auto& m : models) {
      os << " " << format_sci(score(metric, m).r2, 2) << " |";
    }
    os << "   best: " << best_model(metric).model << "\n";
  }
  for (const SkippedMetric& s : skipped_) {
    os << "skipped: " << s.metric << " [" << to_string(s.code)
       << "]: " << s.error << "\n";
  }
  for (const auto& [metric, count] : quarantined_) {
    os << "quarantined: " << metric << " dropped " << count
       << " non-finite rows\n";
  }
  return os.str();
}

}  // namespace gmd::dse
