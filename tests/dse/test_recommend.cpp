#include "gmd/dse/recommend.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "gmd/common/error.hpp"
#include "gmd/common/logging.hpp"
#include "gmd/cpusim/workloads.hpp"
#include "gmd/dse/config_space.hpp"
#include "gmd/graph/generators.hpp"

namespace gmd::dse {
namespace {

class RecommendTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph::UniformRandomParams params;
    params.num_vertices = 128;
    params.edge_factor = 8;
    graph::EdgeList list = graph::generate_uniform_random(params);
    graph::symmetrize(list);
    const auto g = graph::CsrGraph::from_edge_list(list);
    cpusim::VectorSink sink;
    cpusim::AtomicCpu cpu(cpusim::CpuModel{}, &sink);
    cpusim::BfsWorkload(g, 0).run(cpu);
    rows_ = new std::vector<SweepRow>(
        run_sweep(reduced_design_space(), sink.events()));
  }
  static void TearDownTestSuite() {
    delete rows_;
    rows_ = nullptr;
  }
  static std::vector<SweepRow>* rows_;
};

std::vector<SweepRow>* RecommendTest::rows_ = nullptr;

TEST(MetricDirection, BandwidthMaximizedOthersMinimized) {
  EXPECT_EQ(metric_direction("bandwidth_mbs"), Direction::kMaximize);
  EXPECT_EQ(metric_direction("power_w"), Direction::kMinimize);
  EXPECT_EQ(metric_direction("latency_cycles"), Direction::kMinimize);
  EXPECT_EQ(metric_direction("writes_per_channel"), Direction::kMinimize);
}

TEST_F(RecommendTest, OneRecommendationPerMetric) {
  const auto recs = recommend_from_sweep(*rows_);
  EXPECT_EQ(recs.size(), target_metric_names().size());
}

TEST_F(RecommendTest, RecommendationIsActualOptimum) {
  const auto recs = recommend_from_sweep(*rows_);
  for (const auto& rec : recs) {
    std::size_t metric_index = 0;
    const auto& names = target_metric_names();
    while (names[metric_index] != rec.metric) ++metric_index;
    const Direction direction = metric_direction(rec.metric);
    for (const auto& row : *rows_) {
      const double value = row.metrics.metric_values()[metric_index];
      if (direction == Direction::kMinimize) {
        EXPECT_GE(value, rec.value - 1e-12) << rec.metric;
      } else {
        EXPECT_LE(value, rec.value + 1e-12) << rec.metric;
      }
    }
  }
}

TEST_F(RecommendTest, PowerOptimumIsNvmAtLowClock) {
  // Paper §IV-B: "NVM with a controller frequency of 400 MHz for better
  // power performance".
  const auto recs = recommend_from_sweep(*rows_);
  const auto& power = recs[0];
  ASSERT_EQ(power.metric, "power_w");
  EXPECT_EQ(power.best.kind, MemoryKind::kNvm);
  EXPECT_EQ(power.best.ctrl_freq_mhz, 400u);
}

TEST_F(RecommendTest, BandwidthOptimumIsDramAtHighClocks) {
  // Paper §IV-B: "For better bandwidth performance, we recommend DRAM";
  // Fig. 2: bandwidth grows with CPU and controller frequency.
  const auto recs = recommend_from_sweep(*rows_);
  const auto& bw = recs[1];
  ASSERT_EQ(bw.metric, "bandwidth_mbs");
  EXPECT_EQ(bw.best.kind, MemoryKind::kDram);
  EXPECT_EQ(bw.best.cpu_freq_mhz, 6500u);
  EXPECT_EQ(bw.best.ctrl_freq_mhz, 1600u);
}

TEST_F(RecommendTest, SurrogateRecommendationsAgreeOnStrongSignals) {
  const auto direct = recommend_from_sweep(*rows_);
  std::vector<DesignPoint> candidates;
  candidates.reserve(rows_->size());
  for (const auto& row : *rows_) candidates.push_back(row.point);
  const auto surrogate = recommend_from_surrogate(*rows_, candidates, "svr");
  ASSERT_EQ(surrogate.size(), direct.size());
  // Power has a wide margin (NVM vs DRAM): the surrogate must find the
  // same technology and controller frequency.
  EXPECT_EQ(surrogate[0].best.kind, direct[0].best.kind);
  EXPECT_EQ(surrogate[0].best.ctrl_freq_mhz, direct[0].best.ctrl_freq_mhz);
}

TEST_F(RecommendTest, FormattedReportMentionsEachMetric) {
  const auto recs = recommend_from_sweep(*rows_);
  const std::string text = format_recommendations(recs);
  for (const auto& metric : target_metric_names()) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric;
  }
}

class RecommendThreadInvariance : public RecommendTest {};

TEST_F(RecommendThreadInvariance, SameRecommendationsAtAnyWidth) {
  std::vector<DesignPoint> candidates;
  candidates.reserve(rows_->size());
  for (const auto& row : *rows_) candidates.push_back(row.point);
  for (const std::string model : {"svr", "rf", "gb"}) {
    const auto serial = recommend_from_surrogate(*rows_, candidates, model, 1);
    ASSERT_EQ(serial.size(), target_metric_names().size()) << model;
    for (const std::size_t threads : {2u, 4u, 0u}) {
      const auto parallel =
          recommend_from_surrogate(*rows_, candidates, model, threads);
      ASSERT_EQ(parallel.size(), serial.size()) << model;
      for (std::size_t m = 0; m < serial.size(); ++m) {
        EXPECT_EQ(parallel[m].metric, serial[m].metric) << model;
        EXPECT_EQ(parallel[m].metric, target_metric_names()[m]) << model;
        EXPECT_EQ(parallel[m].best, serial[m].best)
            << model << " " << serial[m].metric << " @" << threads;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel[m].value),
                  std::bit_cast<std::uint64_t>(serial[m].value))
            << model << " " << serial[m].metric << " @" << threads;
        EXPECT_EQ(parallel[m].rationale, serial[m].rationale) << model;
      }
      EXPECT_EQ(format_recommendations(parallel),
                format_recommendations(serial))
          << model << " @" << threads;
    }
  }
}

TEST_F(RecommendThreadInvariance, FirstFailingMetricInOrderIsThrown) {
  // Two metrics whose every row is non-finite fail their deploy; the
  // error that escapes is the earlier one in metric order, whichever
  // worker failed first.
  std::vector<SweepRow> rows = *rows_;
  for (SweepRow& row : rows) {
    row.metrics.avg_bandwidth_per_bank_mbs = std::nan("");
    row.metrics.avg_writes_per_channel = std::nan("");
  }
  std::vector<DesignPoint> candidates;
  for (const auto& row : rows) candidates.push_back(row.point);
  for (const std::size_t threads : {1u, 4u}) {
    log::set_sink([](log::Level, std::string_view) {});
    try {
      recommend_from_surrogate(rows, candidates, "linear", threads);
      log::set_sink(nullptr);
      FAIL() << "expected Error(kInvalidData) at " << threads << " threads";
    } catch (const Error& e) {
      log::set_sink(nullptr);
      EXPECT_EQ(e.code(), ErrorCode::kInvalidData) << e.what();
      EXPECT_NE(std::string(e.what()).find("'bandwidth_mbs'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Recommend, EmptyInputsThrow) {
  EXPECT_THROW(recommend_from_sweep({}), Error);
  std::vector<SweepRow> rows(20);
  EXPECT_THROW(recommend_from_surrogate(rows, {}), Error);
}

}  // namespace
}  // namespace gmd::dse
