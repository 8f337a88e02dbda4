// Tests for dense linear algebra: matrix ops, QR, Jacobi SVD and right-only
// SVD. Property-style sweeps use parameterized tests over shapes/seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "deisa/linalg/decomp.hpp"
#include "deisa/linalg/matrix.hpp"
#include "deisa/util/error.hpp"
#include "deisa/util/rng.hpp"

namespace la = deisa::linalg;
using deisa::util::Rng;

namespace {

la::Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix a(m, n);
  for (double& x : a.data()) x = rng.normal();
  return a;
}

/// U * diag(s) * V^T.
la::Matrix svd_reconstruct(const la::SvdResult& r) {
  la::Matrix us = r.u;
  for (std::size_t j = 0; j < us.cols(); ++j)
    for (double& x : us.col(j)) x *= r.s[j];
  return la::matmul(us, r.v.transposed());
}

double orthonormality_error(const la::Matrix& q) {
  const la::Matrix qtq = la::matmul_tn(q, q);
  return la::max_abs_diff(qtq, la::Matrix::identity(q.cols()));
}

TEST(Matrix, BasicAccessAndFromRows) {
  const auto a = la::Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_DOUBLE_EQ(a(0, 1), 2);
  EXPECT_DOUBLE_EQ(a(1, 2), 6);
}

TEST(Matrix, TransposeRoundTrip) {
  const auto a = random_matrix(5, 3, 1);
  EXPECT_DOUBLE_EQ(la::max_abs_diff(a.transposed().transposed(), a), 0.0);
}

TEST(Matrix, MatmulAgainstHandComputed) {
  const auto a = la::Matrix::from_rows({{1, 2}, {3, 4}});
  const auto b = la::Matrix::from_rows({{5, 6}, {7, 8}});
  const auto c = la::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, MatmulTnMatchesExplicitTranspose) {
  const auto a = random_matrix(6, 4, 2);
  const auto b = random_matrix(6, 3, 3);
  EXPECT_LT(la::max_abs_diff(la::matmul_tn(a, b),
                             la::matmul(a.transposed(), b)),
            1e-12);
}

TEST(Matrix, VstackAndBlock) {
  const auto a = la::Matrix::from_rows({{1, 2}});
  const auto b = la::Matrix::from_rows({{3, 4}, {5, 6}});
  const auto s = a.vstack(b);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_DOUBLE_EQ(s(2, 1), 6);
  const auto blk = s.block(1, 0, 2, 2);
  EXPECT_DOUBLE_EQ(blk(0, 0), 3);
  EXPECT_DOUBLE_EQ(blk(1, 1), 6);
}

TEST(Matrix, ShapeMismatchThrows) {
  const auto a = random_matrix(2, 3, 1);
  const auto b = random_matrix(2, 3, 2);
  EXPECT_THROW(la::matmul(a, b), deisa::util::Error);
  EXPECT_THROW(a.block(0, 0, 3, 3), deisa::util::Error);
}

class QrShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrShapes, ReconstructsAndIsOrthonormal) {
  const auto [m, n] = GetParam();
  const auto a = random_matrix(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(n), 77);
  const auto [q, r] = la::qr_thin(a);
  EXPECT_LT(orthonormality_error(q), 1e-10);
  EXPECT_LT(la::max_abs_diff(la::matmul(q, r), a), 1e-10);
  // R upper triangular.
  for (std::size_t j = 0; j < r.cols(); ++j)
    for (std::size_t i = j + 1; i < r.rows(); ++i)
      EXPECT_DOUBLE_EQ(r(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapes,
                         ::testing::Values(std::pair{4, 4}, std::pair{8, 3},
                                           std::pair{20, 12},
                                           std::pair{50, 7},
                                           std::pair{5, 1}));

TEST(Qr, RankDeficientStillReconstructs) {
  auto a = random_matrix(8, 4, 9);
  // Make column 2 a multiple of column 0.
  for (std::size_t i = 0; i < 8; ++i) a(i, 2) = 3.0 * a(i, 0);
  const auto [q, r] = la::qr_thin(a);
  EXPECT_LT(la::max_abs_diff(la::matmul(q, r), a), 1e-10);
}

class SvdShapes
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(SvdShapes, FullSvdProperties) {
  const auto [m, n, seed] = GetParam();
  const auto a = random_matrix(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(n), seed);
  const auto r = la::svd(a);
  const std::size_t k = std::min(a.rows(), a.cols());
  ASSERT_EQ(r.s.size(), k);
  // Descending non-negative singular values.
  for (std::size_t i = 0; i + 1 < k; ++i) {
    EXPECT_GE(r.s[i], r.s[i + 1]);
    EXPECT_GE(r.s[i + 1], 0.0);
  }
  EXPECT_LT(orthonormality_error(r.u), 1e-9);
  EXPECT_LT(orthonormality_error(r.v), 1e-9);
  EXPECT_LT(la::max_abs_diff(svd_reconstruct(r), a), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapes,
    ::testing::Values(std::tuple{6, 6, 11}, std::tuple{12, 5, 12},
                      std::tuple{5, 12, 13}, std::tuple{30, 8, 14},
                      std::tuple{3, 40, 15}, std::tuple{1, 5, 16},
                      std::tuple{7, 1, 17}));

TEST(Svd, MatchesKnownDiagonal) {
  const auto a = la::Matrix::from_rows({{3, 0}, {0, -2}});
  const auto r = la::svd(a);
  EXPECT_NEAR(r.s[0], 3.0, 1e-12);
  EXPECT_NEAR(r.s[1], 2.0, 1e-12);
}

TEST(Svd, SingularValuesOfOrthogonalMatrixAreOnes) {
  const auto q = la::qr_thin(random_matrix(9, 9, 21)).q;
  const auto r = la::svd(q);
  for (double s : r.s) EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Svd, LowRankMatrixHasZeroTail) {
  // Rank-2 matrix: outer products.
  const auto u = random_matrix(10, 2, 31);
  const auto v = random_matrix(6, 2, 32);
  const auto a = la::matmul(u, v.transposed());
  const auto r = la::svd(a);
  EXPECT_GT(r.s[1], 1e-6);
  for (std::size_t i = 2; i < r.s.size(); ++i) EXPECT_LT(r.s[i], 1e-9);
}

// ---- right-only SVD (the PCA update's solver) ----

/// A = U diag(s) V^T with random orthonormal U, V and s falling
/// geometrically from 1 to 1e-12: a fast-decaying spectrum like the
/// stacked matrix of an IPCA update on Heat2D slabs.
la::Matrix graded_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  la::Matrix us = la::qr_thin(random_matrix(m, n, seed)).q;
  const la::Matrix v = la::qr_thin(random_matrix(n, n, seed + 1)).q;
  for (std::size_t j = 0; j < n; ++j) {
    const double sj = std::pow(10.0, -12.0 * static_cast<double>(j) /
                                         static_cast<double>(n - 1));
    for (double& x : us.col(j)) x *= sj;
  }
  return la::matmul(us, v.transposed());
}

/// svd_right(a, vectors) agrees with svd: the same singular values (all
/// of them) within 1e-12 s0, orthonormal kept V columns (all of them when
/// m >= n, those of nonzero singular values when m < n), and, for every
/// kept column whose singular value is separated from its neighbours by at
/// least 1e-3 s0, the same V column up to sign within the perturbation
/// bound 1e-12 s0 / gap.
void expect_matches_svd(const la::Matrix& a, std::size_t vectors = SIZE_MAX) {
  const la::SvdResult ref = la::svd(a);
  const la::RightSvdResult r = la::svd_right(a, vectors);
  const std::size_t n = a.cols();
  const std::size_t k = std::min(a.rows(), n);
  const std::size_t kept = std::min(vectors, k);
  ASSERT_EQ(r.s.size(), k);
  ASSERT_EQ(r.v.rows(), n);
  ASSERT_EQ(r.v.cols(), kept);
  const double s0 = ref.s[0];
  for (std::size_t j = 0; j < k; ++j)
    EXPECT_NEAR(r.s[j], ref.s[j], 1e-12 * s0) << "singular value " << j;
  std::size_t rank = 0;
  while (rank < k && r.s[rank] > 0.0) ++rank;
  const la::Matrix v =
      a.rows() >= n ? r.v : r.v.block(0, 0, n, std::min(rank, kept));
  EXPECT_LT(orthonormality_error(v), 1e-12);
  for (std::size_t j = 0; j < kept; ++j) {
    double gap = s0;
    if (j > 0) gap = std::min(gap, ref.s[j - 1] - ref.s[j]);
    if (j + 1 < k) gap = std::min(gap, ref.s[j] - ref.s[j + 1]);
    if (gap < 1e-3 * s0) continue;
    const auto x = r.v.col(j);
    const auto y = ref.v.col(j);
    const double sign = la::dot(x, y) < 0.0 ? -1.0 : 1.0;
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      diff = std::max(diff, std::abs(x[i] - sign * y[i]));
    EXPECT_LT(diff, 1e-12 * s0 / gap) << "column " << j;
  }
}

TEST(SvdRight, MatchesSvdOnRandomShapes) {
  expect_matches_svd(random_matrix(30, 8, 81));   // tall
  expect_matches_svd(random_matrix(13, 10, 82));  // tall, stack-like
  expect_matches_svd(random_matrix(9, 9, 83));    // square
  expect_matches_svd(random_matrix(5, 12, 84));   // wide
  expect_matches_svd(random_matrix(3, 40, 85));   // very wide
  expect_matches_svd(random_matrix(7, 1, 86));    // one column
}

TEST(SvdRight, MatchesSvdOnGradedSpectrum) {
  expect_matches_svd(graded_matrix(23, 20, 91));
  expect_matches_svd(graded_matrix(40, 12, 92));
  expect_matches_svd(graded_matrix(16, 16, 93));
}

TEST(SvdRight, RankDeficientKeepsOrthonormalV) {
  const auto tall = la::matmul(random_matrix(12, 3, 101),
                               random_matrix(8, 3, 102).transposed());
  expect_matches_svd(tall);
  const auto r = la::svd_right(tall, 0);
  for (std::size_t j = 3; j < r.s.size(); ++j)
    EXPECT_LT(r.s[j], 1e-12 * r.s[0]);
  expect_matches_svd(tall.transposed());  // wide, same spectrum
}

/// Columns `cols` of `a` (or rows, when `by_rows`) set to exact zero.
la::Matrix zeroed(la::Matrix a, std::initializer_list<std::size_t> cols,
                  bool by_rows = false) {
  for (const std::size_t c : cols)
    for (std::size_t i = 0; i < (by_rows ? a.cols() : a.rows()); ++i)
      (by_rows ? a(c, i) : a(i, c)) = 0.0;
  return a;
}

bool same_bits(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(SvdRight, LeadingVectorsMatchFullSolve) {
  struct Case {
    const char* name;
    la::Matrix a;
    bool deficient;
  };
  const std::vector<Case> cases = {
      {"tall", random_matrix(12, 7, 111), false},
      {"square", random_matrix(9, 9, 112), false},
      {"wide", random_matrix(5, 12, 113), false},
      {"tall, 3 zero columns", zeroed(random_matrix(12, 7, 114), {1, 3, 4}),
       true},
      {"square, 2 zero columns", zeroed(random_matrix(8, 8, 115), {0, 5}),
       true},
      {"wide, 2 zero rows", zeroed(random_matrix(5, 12, 116), {2, 3}, true),
       true},
  };
  for (const Case& c : cases) {
    const std::size_t n = c.a.cols();
    const la::RightSvdResult full = la::svd_right(c.a, n);
    std::size_t rank = 0;
    while (rank < full.s.size() && full.s[rank] > 0.0) ++rank;
    EXPECT_EQ(rank < full.s.size(), c.deficient) << c.name;
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, rank,
                                rank + 1, std::size_t{100}}) {
      const la::RightSvdResult lead = la::svd_right(c.a, k);
      EXPECT_TRUE(same_bits(lead.s, full.s)) << c.name << ", k = " << k;
      const std::size_t kept = std::min(k, full.s.size());
      ASSERT_EQ(lead.v.rows(), n) << c.name;
      ASSERT_EQ(lead.v.cols(), kept) << c.name << ", k = " << k;
      for (std::size_t j = 0; j < kept; ++j)
        EXPECT_TRUE(same_bits(lead.v.col(j), full.v.col(j)))
            << c.name << ", k = " << k << ", column " << j;
    }
  }
}

TEST(SvdRight, LowRankStackMatchesSvd) {
  // The shape of an insitu-ipca update stack (2 components + 256 samples
  // + 1 mean-correction row, 256 features) at rank 6, with well separated
  // singular values 2^-j; the fit keeps 2 vectors.
  constexpr std::size_t kRank = 6;
  la::Matrix us = la::qr_thin(random_matrix(259, kRank, 121)).q;
  const la::Matrix v = la::qr_thin(random_matrix(256, kRank, 122)).q;
  for (std::size_t j = 0; j < kRank; ++j)
    for (double& x : us.col(j)) x *= std::ldexp(1.0, -static_cast<int>(j));
  const la::Matrix a = la::matmul(us, v.transposed());
  expect_matches_svd(a, 2);
  expect_matches_svd(a, kRank);
}

}  // namespace
