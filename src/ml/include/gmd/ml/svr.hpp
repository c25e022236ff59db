#pragma once

/// \file svr.hpp
/// Epsilon-insensitive Support Vector Regression — the paper's best
/// model for bandwidth, power, and latency (Table I's "SVM" column).
///
/// Solver: dual coordinate descent on the epsilon-SVR objective with
/// the bias folded into the kernel (K + 1), which removes the equality
/// constraint and makes each dual coefficient's subproblem a scalar
/// soft-threshold.  Each full sweep costs O(n^2) over a dense Gram
/// matrix, which suits this dataset scale (hundreds of samples).  A fit
/// is single-threaded; the surrogate stage gets its parallelism by
/// running independent fits side by side, not from inside one.

#include <iosfwd>
#include <span>
#include <vector>

#include "gmd/ml/kernel.hpp"
#include "gmd/ml/matrix.hpp"
#include "gmd/ml/regressor.hpp"

namespace gmd::ml {

struct SvrParams {
  KernelParams kernel;       ///< Default: RBF with gamma 1.
  double c = 100.0;          ///< Box constraint (regularization inverse).
  double epsilon = 0.005;    ///< Insensitive-tube half-width (targets
                             ///< are min-max scaled to [0,1]).
  unsigned max_passes = 300; ///< Full coordinate sweeps.
  /// Max coefficient change per sweep to declare convergence.  The fit
  /// quality plateaus orders of magnitude before the coefficients fully
  /// settle on ill-conditioned kernels, so this is deliberately loose.
  double tolerance = 1e-4;
};

class Svr final : public Regressor {
 public:
  explicit Svr(const SvrParams& params = {});

  void fit(const Matrix& x, std::span<const double> y) override;
  double predict_one(std::span<const double> x) const override;
  std::vector<double> predict(const Matrix& x) const override;
  std::string name() const override { return "svr"; }
  std::unique_ptr<Regressor> clone() const override;
  bool is_fitted() const override { return fitted_; }

  /// Dual coefficients beta_i = alpha_i - alpha_i^*; nonzero entries
  /// are the support vectors.
  const std::vector<double>& dual_coefficients() const { return beta_; }
  std::size_t num_support_vectors() const;
  unsigned passes_used() const { return passes_used_; }

  /// Text (de)serialization; see serialize.hpp.  Only the support
  /// vectors with nonzero dual coefficients are stored.
  void write(std::ostream& os) const;
  static Svr read(std::istream& is);

 private:
  SvrParams params_;
  Matrix support_;            ///< Training inputs (all rows kept).
  std::vector<double> beta_;
  bool fitted_ = false;
  unsigned passes_used_ = 0;
};

}  // namespace gmd::ml
