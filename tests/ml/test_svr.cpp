#include "gmd/ml/svr.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gmd/common/error.hpp"
#include "gmd/common/hash.hpp"
#include "gmd/common/rng.hpp"
#include "gmd/ml/metrics.hpp"

namespace gmd::ml {
namespace {

/// Samples x in [0,1]^2 and y = f(x) for a smooth nonlinear target.
void sample_nonlinear(std::size_t n, std::uint64_t seed, Matrix* x,
                      std::vector<double>* y) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  y->clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_double();
    const double b = rng.next_double();
    rows.push_back({a, b});
    y->push_back(std::sin(3.0 * a) * 0.5 + b * b);
  }
  *x = Matrix::from_rows(rows);
}

TEST(Svr, FitsLinearFunctionWithLinearKernel) {
  SvrParams params;
  params.kernel.type = KernelType::kLinear;
  params.epsilon = 0.001;
  Svr model(params);
  Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    const double a = rng.next_double();
    rows.push_back({a});
    y.push_back(0.8 * a + 0.1);
  }
  const Matrix x = Matrix::from_rows(rows);
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.999);
}

TEST(Svr, FitsNonlinearFunctionWithRbf) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(150, 4, &x, &y);
  SvrParams params;
  params.kernel.gamma = 2.0;
  Svr model(params);
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.99);

  // Generalization on held-out samples.
  Matrix xt;
  std::vector<double> yt;
  sample_nonlinear(50, 5, &xt, &yt);
  EXPECT_GT(r2_score(yt, model.predict(xt)), 0.97);
}

TEST(Svr, EpsilonTubeSparsifiesSupportVectors) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(100, 6, &x, &y);
  SvrParams tight;
  tight.epsilon = 0.0005;
  SvrParams loose;
  loose.epsilon = 0.1;
  Svr model_tight(tight), model_loose(loose);
  model_tight.fit(x, y);
  model_loose.fit(x, y);
  EXPECT_LT(model_loose.num_support_vectors(),
            model_tight.num_support_vectors());
}

TEST(Svr, PredictionsWithinEpsilonPlusSlack) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(80, 7, &x, &y);
  SvrParams params;
  params.epsilon = 0.02;
  params.kernel.gamma = 4.0;
  Svr model(params);
  model.fit(x, y);
  const auto pred = model.predict(x);
  // With a generous C the training error should be near the tube width.
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_LT(std::abs(pred[i] - y[i]), 0.1) << "sample " << i;
  }
}

TEST(Svr, ConvergesBeforeMaxPassesAtCoarseTolerance) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(60, 8, &x, &y);
  SvrParams params;
  params.tolerance = 1e-2;
  Svr model(params);
  model.fit(x, y);
  EXPECT_LT(model.passes_used(), params.max_passes);
}

TEST(Svr, DualCoefficientsRespectBox) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(60, 9, &x, &y);
  SvrParams params;
  params.c = 1.0;
  Svr model(params);
  model.fit(x, y);
  for (const double b : model.dual_coefficients()) {
    EXPECT_GE(b, -1.0 - 1e-12);
    EXPECT_LE(b, 1.0 + 1e-12);
  }
}

TEST(Svr, PolynomialKernelWorks) {
  SvrParams params;
  params.kernel.type = KernelType::kPolynomial;
  params.kernel.degree = 2;
  Svr model(params);
  Rng rng(10);
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 0; i < 80; ++i) {
    const double a = rng.next_double_in(-1.0, 1.0);
    rows.push_back({a});
    y.push_back(a * a);
  }
  const Matrix x = Matrix::from_rows(rows);
  model.fit(x, y);
  EXPECT_GT(r2_score(y, model.predict(x)), 0.99);
}

TEST(Svr, MisuseErrors) {
  Svr model;
  EXPECT_THROW((void)model.predict_one(std::vector<double>{0.0}), Error);
  SvrParams bad;
  bad.c = 0.0;
  EXPECT_THROW(Svr{bad}, Error);
  bad = SvrParams{};
  bad.epsilon = -0.1;
  EXPECT_THROW(Svr{bad}, Error);
}

TEST(Svr, CloneKeepsFittedState) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(40, 11, &x, &y);
  Svr model;
  model.fit(x, y);
  const auto copy = model.clone();
  const std::vector<double> probe{0.3, 0.7};
  EXPECT_DOUBLE_EQ(copy->predict_one(probe), model.predict_one(probe));
}

// Pins the coordinate-descent iterate sequence bit for bit.  The values
// were captured from the Matrix::at form of the solver, so they show the
// row-span loops replay the same iterates; a change to the update order,
// the arithmetic or the solver itself moves them.  The RBF Gram entries
// come from std::exp, so the pins assume glibc's x86-64 exp (>= 2.28).
TEST(SvrGolden, DualCoefficientsPassesAndPredictionsAreBitStable) {
  Matrix x;
  std::vector<double> y;
  sample_nonlinear(300, 21, &x, &y);
  SvrParams params;
  params.kernel.gamma = 2.0;
  Svr model(params);
  model.fit(x, y);

  Fnv1a beta;
  for (const double b : model.dual_coefficients()) beta.mix_double(b);

  Matrix probe;
  std::vector<double> unused;
  sample_nonlinear(64, 22, &probe, &unused);
  Fnv1a predictions;
  for (const double p : model.predict(probe)) predictions.mix_double(p);

  EXPECT_EQ(model.passes_used(), 300u);
  EXPECT_EQ(model.num_support_vectors(), 162u);
  EXPECT_EQ(beta.state, 0x98fb7578895e5733ull);
  EXPECT_EQ(predictions.state, 0xc1f121b369940c2dull);
}

}  // namespace
}  // namespace gmd::ml
