// Tests for the Heat2D miniapp: physics invariants (heat conservation
// under insulated boundaries, diffusion smoothing, decomposition
// independence) and the cost model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/apps/heat2d.hpp"

namespace apps = deisa::apps;
namespace arr = deisa::array;
namespace mpix = deisa::mpix;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

struct World {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<mpix::Comm> comm;

  explicit World(int ranks) {
    net::ClusterParams p;
    p.physical_nodes = std::max(4, ranks);
    cluster = std::make_unique<net::Cluster>(eng, p);
    std::vector<int> nodes;
    for (int r = 0; r < ranks; ++r) nodes.push_back(r / 2);
    comm = std::make_unique<mpix::Comm>(*cluster, std::move(nodes));
  }
};

sim::Co<void> run_steps(apps::Heat2d& solver, mpix::Comm& comm, int steps) {
  for (int s = 0; s < steps; ++s) co_await solver.step(comm);
}

/// Run a full decomposed simulation and return the assembled global field.
arr::NDArray run_decomposed(int proc_x, int proc_y, std::int64_t local,
                            int steps) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = local / proc_x;
  cfg.local_ny = local / proc_y;
  cfg.proc_x = proc_x;
  cfg.proc_y = proc_y;
  World w(cfg.ranks());
  std::vector<std::unique_ptr<apps::Heat2d>> solvers;
  for (int r = 0; r < cfg.ranks(); ++r) {
    solvers.push_back(std::make_unique<apps::Heat2d>(cfg, r));
    solvers.back()->initialize();
    w.eng.spawn(run_steps(*solvers.back(), *w.comm, steps));
  }
  w.eng.run();
  arr::NDArray global(arr::Index{local, local});
  for (const auto& s : solvers) {
    arr::Box box;
    box.lo = {s->px() * cfg.local_nx, s->py() * cfg.local_ny};
    box.hi = {box.lo[0] + cfg.local_nx, box.lo[1] + cfg.local_ny};
    global.insert(box, s->field());
  }
  return global;
}

/// The element-wise Heat2D kernel: per-cell at() lookups, with each
/// rank's halos read straight from its neighbours' boundary cells (what
/// the halo exchange delivers). Oracle for the solver's raw-storage
/// kernel, which must give the same bits.
struct ElementwiseHeat2d {
  apps::Heat2dConfig cfg;
  std::vector<arr::NDArray> fields;  // one per rank

  explicit ElementwiseHeat2d(const apps::Heat2dConfig& c) : cfg(c) {
    const double cx = 0.3 * static_cast<double>(cfg.global_nx());
    const double cy = 0.6 * static_cast<double>(cfg.global_ny());
    const double r2 =
        0.02 * static_cast<double>(cfg.global_nx() * cfg.global_ny());
    for (int r = 0; r < cfg.ranks(); ++r) {
      arr::NDArray f(arr::Index{cfg.local_nx, cfg.local_ny});
      const double gx0 = static_cast<double>(r % cfg.proc_x) *
                         static_cast<double>(cfg.local_nx);
      const double gy0 = static_cast<double>(r / cfg.proc_x) *
                         static_cast<double>(cfg.local_ny);
      for (std::int64_t i = 0; i < cfg.local_nx; ++i)
        for (std::int64_t j = 0; j < cfg.local_ny; ++j) {
          const double x = gx0 + static_cast<double>(i);
          const double y = gy0 + static_cast<double>(j);
          const double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
          f.at(arr::Index{i, j}) =
              100.0 * std::exp(-d2 / r2) + 0.05 * x + 0.02 * y;
        }
      fields.push_back(std::move(f));
    }
  }

  int neighbor(int r, int dx, int dy) const {
    const int nx = r % cfg.proc_x + dx;
    const int ny = r / cfg.proc_x + dy;
    if (nx < 0 || nx >= cfg.proc_x || ny < 0 || ny >= cfg.proc_y) return -1;
    return ny * cfg.proc_x + nx;
  }

  void step() {
    const std::int64_t nx = cfg.local_nx;
    const std::int64_t ny = cfg.local_ny;
    const double dt = cfg.stable_dt();
    const double cdx = cfg.alpha * dt / (cfg.dx * cfg.dx);
    const double cdy = cfg.alpha * dt / (cfg.dy * cfg.dy);
    std::vector<arr::NDArray> next;
    for (int r = 0; r < cfg.ranks(); ++r) {
      const arr::NDArray& f = fields[static_cast<std::size_t>(r)];
      const auto nb = [&](int dx, int dy) -> const arr::NDArray* {
        const int n = neighbor(r, dx, dy);
        return n < 0 ? nullptr : &fields[static_cast<std::size_t>(n)];
      };
      const arr::NDArray* west = nb(-1, 0);
      const arr::NDArray* east = nb(+1, 0);
      const arr::NDArray* north = nb(0, -1);
      const arr::NDArray* south = nb(0, +1);
      const auto value_at = [&](std::int64_t i, std::int64_t j) {
        if (i < 0) return west ? west->at(arr::Index{nx - 1, j})
                               : f.at(arr::Index{0, j});
        if (i >= nx) return east ? east->at(arr::Index{0, j})
                                 : f.at(arr::Index{nx - 1, j});
        if (j < 0) return north ? north->at(arr::Index{i, ny - 1})
                                : f.at(arr::Index{i, 0});
        if (j >= ny) return south ? south->at(arr::Index{i, 0})
                                  : f.at(arr::Index{i, ny - 1});
        return f.at(arr::Index{i, j});
      };
      arr::NDArray out(arr::Index{nx, ny});
      for (std::int64_t i = 0; i < nx; ++i)
        for (std::int64_t j = 0; j < ny; ++j) {
          const double c = f.at(arr::Index{i, j});
          const double lap_x = value_at(i - 1, j) - 2.0 * c + value_at(i + 1, j);
          const double lap_y = value_at(i, j - 1) - 2.0 * c + value_at(i, j + 1);
          out.at(arr::Index{i, j}) = c + cdx * lap_x + cdy * lap_y;
        }
      next.push_back(std::move(out));
    }
    fields = std::move(next);
  }
};

TEST(Heat2d, StepMatchesElementwiseOracle) {
  // A 2x2 grid gives every rank two edges with a neighbour and two on the
  // insulated domain boundary; on a 1x3 grid the middle rank has
  // neighbours north and south and none east or west. Non-square blocks
  // catch a swapped row/column stride.
  for (const auto& [proc_x, proc_y] : {std::pair{2, 2}, std::pair{1, 3}}) {
    apps::Heat2dConfig cfg;
    cfg.local_nx = 5;
    cfg.local_ny = 7;
    cfg.proc_x = proc_x;
    cfg.proc_y = proc_y;
    World w(cfg.ranks());
    std::vector<std::unique_ptr<apps::Heat2d>> solvers;
    for (int r = 0; r < cfg.ranks(); ++r) {
      solvers.push_back(std::make_unique<apps::Heat2d>(cfg, r));
      solvers.back()->initialize();
    }
    ElementwiseHeat2d oracle(cfg);
    for (int step = 0; step <= 6; ++step) {
      for (int r = 0; r < cfg.ranks(); ++r) {
        const auto got = solvers[static_cast<std::size_t>(r)]->field().flat();
        const auto want = oracle.fields[static_cast<std::size_t>(r)].flat();
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << proc_x << "x" << proc_y << " rank " << r << " step " << step;
      }
      for (auto& s : solvers) w.eng.spawn(run_steps(*s, *w.comm, 1));
      w.eng.run();
      oracle.step();
    }
  }
}

TEST(Heat2d, HeatIsConservedWithInsulatedBoundaries) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = 24;
  cfg.local_ny = 24;
  World w(1);
  apps::Heat2d solver(cfg, 0);
  solver.initialize();
  const double before = solver.local_heat();
  w.eng.spawn(run_steps(solver, *w.comm, 50));
  w.eng.run();
  EXPECT_NEAR(solver.local_heat(), before, 1e-6 * std::abs(before));
}

TEST(Heat2d, DiffusionReducesPeakAndVariance) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = 32;
  cfg.local_ny = 32;
  World w(1);
  apps::Heat2d solver(cfg, 0);
  solver.initialize();
  const auto peak = [&] {
    double m = -1e300;
    for (double v : solver.field().flat()) m = std::max(m, v);
    return m;
  };
  const double p0 = peak();
  w.eng.spawn(run_steps(solver, *w.comm, 100));
  w.eng.run();
  EXPECT_LT(peak(), p0);
}

class Decompositions
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Decompositions, GlobalSolutionIndependentOfProcessGrid) {
  // Property: the assembled field after N steps must match the
  // single-rank solution for every decomposition (halo exchange correct).
  const auto [px, py] = GetParam();
  const auto reference = run_decomposed(1, 1, 24, 12);
  const auto decomposed = run_decomposed(px, py, 24, 12);
  ASSERT_EQ(reference.shape(), decomposed.shape());
  for (std::int64_t i = 0; i < reference.size(); ++i)
    ASSERT_NEAR(reference.flat()[static_cast<std::size_t>(i)],
                decomposed.flat()[static_cast<std::size_t>(i)], 1e-9)
        << "cell " << i << " differs for grid " << px << "x" << py;
}

INSTANTIATE_TEST_SUITE_P(Grids, Decompositions,
                         ::testing::Values(std::pair{2, 1}, std::pair{1, 2},
                                           std::pair{2, 2}, std::pair{4, 2},
                                           std::pair{3, 2}));

TEST(Heat2d, TotalHeatConservedAcrossDecomposition) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = 12;
  cfg.local_ny = 12;
  cfg.proc_x = 2;
  cfg.proc_y = 2;
  World w(4);
  std::vector<std::unique_ptr<apps::Heat2d>> solvers;
  double before = 0;
  for (int r = 0; r < 4; ++r) {
    solvers.push_back(std::make_unique<apps::Heat2d>(cfg, r));
    solvers.back()->initialize();
    before += solvers.back()->local_heat();
    w.eng.spawn(run_steps(*solvers.back(), *w.comm, 30));
  }
  w.eng.run();
  double after = 0;
  for (const auto& s : solvers) after += s->local_heat();
  EXPECT_NEAR(after, before, 1e-6 * std::abs(before));
}

TEST(Heat2d, ConfigValidation) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = 8;
  cfg.local_ny = 8;
  EXPECT_THROW(apps::Heat2d(cfg, 1), deisa::util::Error);  // rank 1 of 1
  cfg.dt = 100.0;  // violates CFL
  EXPECT_THROW(apps::Heat2d(cfg, 0), deisa::util::Error);
  EXPECT_GT(cfg.stable_dt(), 0.0);
}

TEST(Heat2d, CostModelScalesLinearly) {
  EXPECT_DOUBLE_EQ(apps::Heat2d::step_cost(1000, 1e6), 1e-3);
  EXPECT_DOUBLE_EQ(apps::Heat2d::step_cost(2000, 1e6),
                   2 * apps::Heat2d::step_cost(1000, 1e6));
}

}  // namespace
