// Tests for IncrementalPCA math (sklearn-equivalent behaviour) and the
// distributed in-situ IPCA graphs (ahead-of-time vs per-step submission).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/linalg/decomp.hpp"
#include "deisa/ml/insitu.hpp"
#include "deisa/ml/pca.hpp"
#include "deisa/util/rng.hpp"

namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace la = deisa::linalg;
namespace ml = deisa::ml;
namespace net = deisa::net;
namespace sim = deisa::sim;
using deisa::util::Rng;

namespace {

/// Synthetic low-rank-plus-noise data with a known dominant structure.
la::Matrix make_data(std::size_t n, std::size_t f, std::uint64_t seed,
                     double noise = 0.05) {
  Rng rng(seed);
  la::Matrix x(n, f);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.normal() * 3.0;  // strong direction
    const double b = rng.normal() * 1.0;  // weaker direction
    for (std::size_t j = 0; j < f; ++j) {
      const double jf = static_cast<double>(j);
      x(i, j) = a * std::sin(0.3 * jf) + b * std::cos(0.7 * jf) +
                noise * rng.normal() + 0.5 * jf;  // nonzero mean
    }
  }
  return x;
}

/// Exact PCA spectrum from the SVD oracle: singular values of the
/// column-centred data.
std::vector<double> exact_singular_values(const la::Matrix& x) {
  la::Matrix centred = x;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    double mean = 0;
    for (double v : centred.col(j)) mean += v;
    mean /= static_cast<double>(x.rows());
    for (double& v : centred.col(j)) v -= mean;
  }
  return la::svd(centred).s;
}

// The batch PCA fit is the first partial_fit of an IncrementalPca: column
// means, centring, then the exact SVD of the centred data.
ml::IncrementalPca fit_pca(const la::Matrix& x, std::size_t n_components) {
  ml::PcaOptions opts;
  opts.n_components = n_components;
  ml::IncrementalPca pca(opts);
  pca.partial_fit(x);
  return pca;
}

TEST(Pca, ExplainedVarianceSumsAndOrdering) {
  const auto pca = fit_pca(make_data(200, 12, 1), 4);
  ASSERT_EQ(pca.singular_values().size(), 4u);
  for (std::size_t i = 0; i + 1 < 4; ++i)
    EXPECT_GE(pca.explained_variance()[i], pca.explained_variance()[i + 1]);
  double ratio_sum = 0;
  for (double r : pca.explained_variance_ratio()) ratio_sum += r;
  EXPECT_LE(ratio_sum, 1.0 + 1e-9);
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.4);
}

TEST(Pca, ComponentsAreOrthonormal) {
  const auto pca = fit_pca(make_data(100, 8, 2), 3);
  const la::Matrix& c = pca.components();
  const la::Matrix cct = la::matmul(c, c.transposed());
  EXPECT_LT(la::max_abs_diff(cct, la::Matrix::identity(3)), 1e-9);
}

TEST(IncrementalPca, SingleBatchMatchesPca) {
  // One batch is exact PCA: the SVD oracle's spectrum, and explained
  // variance s^2 / (n - 1).
  const auto x = make_data(150, 10, 4);
  const auto ipca = fit_pca(x, 3);
  const std::vector<double> s = exact_singular_values(x);
  const double denom = static_cast<double>(x.rows() - 1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(ipca.singular_values()[i], s[i], 1e-9 * s[0]);
    EXPECT_NEAR(ipca.explained_variance()[i], s[i] * s[i] / denom,
                1e-9 * s[0] * s[0] / denom);
  }
}

class IpcaBatching : public ::testing::TestWithParam<int> {};

TEST_P(IpcaBatching, MultiBatchApproximatesBatchPca) {
  // Property: IPCA over B minibatches recovers the dominant subspace and
  // spectrum of exact PCA on the concatenated data.
  const int batches = GetParam();
  const std::size_t n_per = 40;
  const std::size_t f = 12;
  ml::PcaOptions opts;
  opts.n_components = 3;

  la::Matrix all;
  ml::IncrementalPca ipca(opts);
  for (int b = 0; b < batches; ++b) {
    const auto x = make_data(n_per, f, 100 + static_cast<std::uint64_t>(b));
    all = all.empty() ? x : all.vstack(x);
    ipca.partial_fit(x);
  }
  ml::IncrementalPca pca = fit_pca(all, opts.n_components);

  EXPECT_EQ(ipca.n_samples_seen(), n_per * static_cast<std::size_t>(batches));
  // Mean tracked exactly.
  for (std::size_t j = 0; j < f; ++j) {
    double mean = 0;
    for (std::size_t i = 0; i < all.rows(); ++i) mean += all(i, j);
    mean /= static_cast<double>(all.rows());
    EXPECT_NEAR(ipca.mean()[j], mean, 1e-9);
  }
  // Both fits: explained variance descending, ratios summing to at most 1
  // with a dominant first component, orthonormal component rows.
  for (const ml::IncrementalPca* m : {&ipca, &pca}) {
    ASSERT_EQ(m->singular_values().size(), 3u);
    for (std::size_t i = 0; i + 1 < 3; ++i)
      EXPECT_GE(m->explained_variance()[i], m->explained_variance()[i + 1]);
    double ratio_sum = 0;
    for (double r : m->explained_variance_ratio()) ratio_sum += r;
    EXPECT_LE(ratio_sum, 1.0 + 1e-9);
    EXPECT_GT(m->explained_variance_ratio()[0], 0.4);
    const la::Matrix& c = m->components();
    EXPECT_LT(la::max_abs_diff(la::matmul(c, c.transposed()),
                               la::Matrix::identity(3)),
              1e-9);
  }
  // Dominant singular value within a few percent; component subspaces
  // aligned (|cos| close to 1 for the leading component).
  EXPECT_NEAR(ipca.singular_values()[0], pca.singular_values()[0],
              0.05 * pca.singular_values()[0]);
  double cos0 = 0;
  for (std::size_t j = 0; j < f; ++j)
    cos0 += ipca.components()(0, j) * pca.components()(0, j);
  EXPECT_GT(std::abs(cos0), 0.99);
}

INSTANTIATE_TEST_SUITE_P(Batches, IpcaBatching, ::testing::Values(2, 4, 8));

TEST(IncrementalPca, VarianceTrackingMatchesPopulationVariance) {
  ml::PcaOptions opts;
  opts.n_components = 2;
  ml::IncrementalPca ipca(opts);
  la::Matrix all;
  for (int b = 0; b < 3; ++b) {
    const auto x = make_data(30, 6, 200 + static_cast<std::uint64_t>(b));
    all = all.empty() ? x : all.vstack(x);
    ipca.partial_fit(x);
  }
  for (std::size_t j = 0; j < 6; ++j) {
    double mean = 0;
    for (std::size_t i = 0; i < all.rows(); ++i) mean += all(i, j);
    mean /= static_cast<double>(all.rows());
    double var = 0;
    for (std::size_t i = 0; i < all.rows(); ++i) {
      const double d = all(i, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(all.rows());
    EXPECT_NEAR(ipca.variance()[j], var, 1e-9 * std::max(1.0, var));
  }
}

TEST(IncrementalPca, FirstBatchSmallerThanComponentsThrows) {
  ml::PcaOptions opts;
  opts.n_components = 5;
  ml::IncrementalPca ipca(opts);
  EXPECT_THROW(ipca.partial_fit(make_data(3, 8, 5)), deisa::util::Error);
}

TEST(IncrementalPca, FeatureCountChangeThrows) {
  ml::PcaOptions opts;
  opts.n_components = 2;
  ml::IncrementalPca ipca(opts);
  ipca.partial_fit(make_data(20, 8, 6));
  EXPECT_THROW(ipca.partial_fit(make_data(20, 9, 7)), deisa::util::Error);
}

TEST(IncrementalPca, RandomizedSolverCloseToExact) {
  ml::PcaOptions exact_opts;
  exact_opts.n_components = 3;
  ml::PcaOptions rand_opts = exact_opts;
  rand_opts.randomized = true;
  ml::IncrementalPca a(exact_opts);
  ml::IncrementalPca b(rand_opts);
  for (int i = 0; i < 4; ++i) {
    const auto x = make_data(50, 30, 300 + static_cast<std::uint64_t>(i));
    a.partial_fit(x);
    b.partial_fit(x);
  }
  // Both labels run the same exact solver.
  EXPECT_EQ(a.singular_values(), b.singular_values());
}

TEST(IncrementalPca, ExactlyRankDeficientBatchComponents) {
  // Tall batch (10 samples x 5 features) with features 1, 3 and 4 all
  // zero: the stack has rank 2 and three exactly-zero singular values. The
  // third component is still a unit vector orthogonal to the other two.
  la::Matrix tall = make_data(10, 5, 41);
  for (std::size_t i = 0; i < tall.rows(); ++i)
    for (const std::size_t j : {1u, 3u, 4u}) tall(i, j) = 0.0;
  // Wide batch (4 samples x 10 features, rows e0, -e0, 0, 0): already
  // centred, rank 1. The component of the zero singular value is a zero row.
  la::Matrix wide(4, 10);
  wide(0, 0) = 1.0;
  wide(1, 0) = -1.0;
  for (const bool randomized : {false, true}) {
    ml::PcaOptions opts;
    opts.n_components = 3;
    opts.randomized = randomized;
    ml::IncrementalPca t(opts);
    t.partial_fit(tall);
    EXPECT_GT(t.singular_values()[1], 0.0);
    EXPECT_EQ(t.singular_values()[2], 0.0);
    const la::Matrix& c = t.components();
    EXPECT_LT(la::max_abs_diff(la::matmul(c, c.transposed()),
                               la::Matrix::identity(3)),
              1e-12);

    opts.n_components = 2;
    ml::IncrementalPca w(opts);
    w.partial_fit(wide);
    EXPECT_NEAR(w.singular_values()[0], std::sqrt(2.0), 1e-15);
    EXPECT_EQ(w.singular_values()[1], 0.0);
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_EQ(w.components()(0, j), j == 0 ? 1.0 : 0.0);
      EXPECT_EQ(w.components()(1, j), 0.0);
    }
  }
}

TEST(SvdFlip, MakesLargestComponentEntryPositive) {
  la::Matrix vt = la::Matrix::from_rows({{-3, 1}, {0.5, 2}});
  ml::svd_flip_v(vt);
  EXPECT_DOUBLE_EQ(vt(0, 0), 3);
  EXPECT_DOUBLE_EQ(vt(0, 1), -1);
  EXPECT_DOUBLE_EQ(vt(1, 1), 2);  // already positive: unchanged
}

// ---- distributed in-situ IPCA ----

struct TestCluster {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit TestCluster(int workers = 2) {
    net::ClusterParams p;
    p.physical_nodes = workers + 4;
    p.jitter_sigma = 0.0;
    cluster = std::make_unique<net::Cluster>(eng, p);
    std::vector<int> wn;
    for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn);
    rt->start();
    client = &rt->make_client(1);
  }
};

template <typename... T>
arr::Index ix(T... v) {
  arr::Index i;
  (i.push_back(static_cast<std::int64_t>(v)), ...);
  return i;
}

ml::InSituIpcaOptions listing2_options(std::size_t k) {
  ml::InSituIpcaOptions o;
  o.pca.n_components = k;
  o.labels = {"t", "X", "Y"};
  o.feature_labels = {"X"};
  o.sample_labels = {"Y"};
  return o;
}

/// The simulation field used in functional end-to-end checks.
arr::NDArray make_block(const arr::Box& box, std::uint64_t seed) {
  arr::Index shape(box.ndim());
  for (std::size_t d = 0; d < shape.size(); ++d) shape[d] = box.extent(d);
  arr::NDArray blk(shape);
  Rng rng(seed);
  arr::Index gidx = box.lo;
  std::size_t flat = 0;
  // Deterministic function of the GLOBAL index so chunking cannot matter.
  for (std::int64_t t = 0; t < shape[0]; ++t)
    for (std::int64_t x = 0; x < shape[1]; ++x)
      for (std::int64_t y = 0; y < shape[2]; ++y) {
        const double gt = static_cast<double>(box.lo[0] + t);
        const double gx = static_cast<double>(box.lo[1] + x);
        const double gy = static_cast<double>(box.lo[2] + y);
        blk.flat()[flat++] = std::sin(0.2 * gx + 0.1 * gt) * (1.0 + 0.3 * gy) +
                             0.01 * gx * gy;
      }
  (void)rng;
  (void)gidx;
  return blk;
}

sim::Co<void> push_all_blocks(TestCluster& tc, const arr::DArray& da) {
  for (std::int64_t i = 0; i < da.grid().num_chunks(); ++i) {
    const arr::Index c = da.grid().coord_of(i);
    const arr::Box box = da.grid().box_of(c);
    arr::NDArray blk = make_block(box, 7);
    const std::uint64_t b = blk.bytes();
    co_await tc.client->scatter(da.key_of(c),
                                dts::Data::make<arr::NDArray>(std::move(blk), b),
                                da.worker_of(c), /*external=*/true);
  }
}

sim::Co<void> aot_fit_flow(TestCluster& tc, ml::IncrementalPca& out,
                           std::vector<double>& ev) {
  // Global array: 4 timesteps of 6x8, chunked (1, 3, 4) = 4 blocks/step.
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "temp", ix(4, 6, 8), ix(1, 3, 4));
  ml::InSituIncrementalPca ipca(*tc.client, listing2_options(2));
  ml::ExternalArrayProvider provider(da);
  // Whole fit graph submitted BEFORE any data exists.
  const ml::IpcaFit fit = co_await ipca.fit_ahead_of_time(provider);
  co_await push_all_blocks(tc, da);
  out = co_await ipca.collect_state(fit);
  ev = co_await ipca.collect_vector(fit.explained_variance_key);
  co_await tc.rt->shutdown();
}

TEST(InSituIpca, AheadOfTimeFitMatchesLocalIpca) {
  TestCluster tc(2);
  ml::IncrementalPca distributed(ml::PcaOptions{});
  std::vector<double> ev;
  tc.eng.spawn(aot_fit_flow(tc, distributed, ev));
  tc.eng.run();

  // Reference: run the same math locally over the same slabs.
  ml::PcaOptions opts;
  opts.n_components = 2;
  ml::IncrementalPca local(opts);
  for (std::int64_t t = 0; t < 4; ++t) {
    const arr::Box slab_box(ix(t, 0, 0), ix(t + 1, 6, 8));
    const arr::NDArray slab = make_block(slab_box, 7);
    const arr::NDArray m2d = slab.reshape_2d({0, 2});  // rows = (t, Y)
    la::Matrix x(static_cast<std::size_t>(m2d.shape()[0]),
                 static_cast<std::size_t>(m2d.shape()[1]));
    for (std::int64_t r = 0; r < m2d.shape()[0]; ++r)
      for (std::int64_t c = 0; c < m2d.shape()[1]; ++c)
        x(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            m2d.at(arr::Index{r, c});
    local.partial_fit(x);
  }
  ASSERT_EQ(distributed.n_samples_seen(), local.n_samples_seen());
  ASSERT_EQ(ev.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(distributed.singular_values()[i], local.singular_values()[i],
                1e-9 * std::max(1.0, local.singular_values()[0]));
    EXPECT_NEAR(ev[i], local.explained_variance()[i],
                1e-9 * std::max(1.0, local.explained_variance()[0]));
  }
}

sim::Co<void> per_step_fit_flow(TestCluster& tc, ml::IncrementalPca& out,
                                int& submissions) {
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "temp", ix(3, 6, 8), ix(1, 3, 4));
  // Old IPCA: data must arrive before each per-step submission completes;
  // push everything first, then drive the per-step fit.
  co_await push_all_blocks(tc, da);
  ml::InSituIpcaOptions o = listing2_options(2);
  o.name = "ipca-old";
  ml::InSituIncrementalPca ipca(*tc.client, o);
  ml::ExternalArrayProvider provider(da);
  const ml::IpcaFit fit = co_await ipca.fit_per_step(provider);
  submissions = fit.submissions;
  out = co_await ipca.collect_state(fit);
  co_await tc.rt->shutdown();
}

TEST(InSituIpca, PerStepFitMatchesAheadOfTime) {
  // Old and new IPCA compute the same model — only the submission pattern
  // differs (one graph per step vs one graph total).
  TestCluster tc1(2);
  ml::IncrementalPca per_step(ml::PcaOptions{});
  int submissions = 0;
  tc1.eng.spawn(per_step_fit_flow(tc1, per_step, submissions));
  tc1.eng.run();
  EXPECT_EQ(submissions, 4);  // 3 steps + outputs

  ml::PcaOptions opts;
  opts.n_components = 2;
  ml::IncrementalPca local(opts);
  for (std::int64_t t = 0; t < 3; ++t) {
    const arr::Box slab_box(ix(t, 0, 0), ix(t + 1, 6, 8));
    const arr::NDArray slab = make_block(slab_box, 7);
    const arr::NDArray m2d = slab.reshape_2d({0, 2});
    la::Matrix x(static_cast<std::size_t>(m2d.shape()[0]),
                 static_cast<std::size_t>(m2d.shape()[1]));
    for (std::int64_t r = 0; r < m2d.shape()[0]; ++r)
      for (std::int64_t c = 0; c < m2d.shape()[1]; ++c)
        x(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            m2d.at(arr::Index{r, c});
    local.partial_fit(x);
  }
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(per_step.singular_values()[i], local.singular_values()[i],
                1e-9 * std::max(1.0, local.singular_values()[0]));
}

sim::Co<void> synthetic_aot_flow(TestCluster& tc, double& done_at) {
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "temp", ix(3, 6, 8), ix(1, 3, 4));
  ml::InSituIpcaOptions o = listing2_options(2);
  o.name = "ipca-syn";
  ml::InSituIncrementalPca ipca(*tc.client, o);
  ml::ExternalArrayProvider provider(da);
  const ml::IpcaFit fit = co_await ipca.fit_ahead_of_time(provider);
  // Push size-only blocks (synthetic mode: same code path, no payload).
  for (std::int64_t i = 0; i < da.grid().num_chunks(); ++i) {
    const arr::Index c = da.grid().coord_of(i);
    co_await tc.client->scatter(da.key_of(c), dts::Data::sized(96),
                                da.worker_of(c), true);
  }
  co_await tc.client->wait_key(fit.singular_values_key);
  done_at = tc.eng.now();
  co_await tc.rt->shutdown();
}

TEST(InSituIpca, SyntheticModeRunsSameGraphWithoutPayloads) {
  TestCluster tc(2);
  double done_at = 0;
  tc.eng.spawn(synthetic_aot_flow(tc, done_at));
  tc.eng.run();
  EXPECT_GT(done_at, 0.0);
}

}  // namespace
