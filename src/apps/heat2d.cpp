#include "deisa/apps/heat2d.hpp"

#include <cmath>

#include "deisa/util/error.hpp"

namespace deisa::apps {

namespace {
// Point-to-point tags for the four halo directions.
constexpr int kTagWest = 101;
constexpr int kTagEast = 102;
constexpr int kTagNorth = 103;
constexpr int kTagSouth = 104;
}  // namespace

double Heat2dConfig::stable_dt() const {
  const double dx2 = dx * dx;
  const double dy2 = dy * dy;
  return 0.9 * dx2 * dy2 / (2.0 * alpha * (dx2 + dy2));
}

Heat2d::Heat2d(const Heat2dConfig& cfg, int rank)
    : cfg_(cfg),
      rank_(rank),
      dt_(cfg.dt > 0 ? cfg.dt : cfg.stable_dt()),
      field_(array::Index{cfg.local_nx, cfg.local_ny}),
      next_(array::Index{cfg.local_nx, cfg.local_ny}) {
  DEISA_CHECK(rank >= 0 && rank < cfg.ranks(), "rank outside process grid");
  DEISA_CHECK(cfg.local_nx >= 1 && cfg.local_ny >= 1, "empty local block");
  DEISA_CHECK(dt_ <= cfg.stable_dt() / 0.9 + 1e-12,
              "explicit step dt=" << dt_ << " violates the CFL bound "
                                  << cfg.stable_dt() / 0.9);
}

void Heat2d::initialize() {
  const double gx0 = static_cast<double>(px()) * static_cast<double>(cfg_.local_nx);
  const double gy0 = static_cast<double>(py()) * static_cast<double>(cfg_.local_ny);
  const double cx = 0.3 * static_cast<double>(cfg_.global_nx());
  const double cy = 0.6 * static_cast<double>(cfg_.global_ny());
  const double r2 =
      0.02 * static_cast<double>(cfg_.global_nx() * cfg_.global_ny());
  double* cell = field_.data();  // row-major (local_nx, local_ny)
  for (std::int64_t i = 0; i < cfg_.local_nx; ++i) {
    for (std::int64_t j = 0; j < cfg_.local_ny; ++j) {
      const double x = gx0 + static_cast<double>(i);
      const double y = gy0 + static_cast<double>(j);
      const double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
      *cell++ = 100.0 * std::exp(-d2 / r2) +
                0.05 * x + 0.02 * y;  // blob + gradient
    }
  }
  step_count_ = 0;
}

int Heat2d::neighbor(int dx_, int dy_) const {
  const int nx = px() + dx_;
  const int ny = py() + dy_;
  if (nx < 0 || nx >= cfg_.proc_x || ny < 0 || ny >= cfg_.proc_y) return -1;
  return ny * cfg_.proc_x + nx;
}

exec::Co<void> Heat2d::step(mpix::Comm& comm) {
  const std::int64_t nx = cfg_.local_nx;
  const std::int64_t ny = cfg_.local_ny;
  const int west = neighbor(-1, 0);
  const int east = neighbor(+1, 0);
  const int north = neighbor(0, -1);
  const int south = neighbor(0, +1);
  // Cell (i, j) of the row-major local field.
  const auto field_at = [&](std::int64_t i, std::int64_t j) {
    return field_.data()[i * ny + j];
  };

  // Gather boundary strips.
  std::vector<double> west_col(static_cast<std::size_t>(ny));
  std::vector<double> east_col(static_cast<std::size_t>(ny));
  std::vector<double> north_row(static_cast<std::size_t>(nx));
  std::vector<double> south_row(static_cast<std::size_t>(nx));
  for (std::int64_t j = 0; j < ny; ++j) {
    west_col[static_cast<std::size_t>(j)] = field_at(0, j);
    east_col[static_cast<std::size_t>(j)] = field_at(nx - 1, j);
  }
  for (std::int64_t i = 0; i < nx; ++i) {
    north_row[static_cast<std::size_t>(i)] = field_at(i, 0);
    south_row[static_cast<std::size_t>(i)] = field_at(i, ny - 1);
  }

  // Halo exchange: send our boundary, receive the neighbour's. Tags name
  // the direction of travel as seen by the RECEIVER.
  const auto send_strip = [&](int to, int tag,
                              std::vector<double> strip) -> exec::Co<void> {
    const std::uint64_t bytes = strip.size() * sizeof(double);
    co_await comm.send_value<std::vector<double>>(rank_, to, tag,
                                                  std::move(strip), bytes);
  };
  if (west >= 0) co_await send_strip(west, kTagEast, west_col);
  if (east >= 0) co_await send_strip(east, kTagWest, east_col);
  if (north >= 0) co_await send_strip(north, kTagSouth, north_row);
  if (south >= 0) co_await send_strip(south, kTagNorth, south_row);

  std::vector<double> halo_w(static_cast<std::size_t>(ny), 0.0);
  std::vector<double> halo_e(static_cast<std::size_t>(ny), 0.0);
  std::vector<double> halo_n(static_cast<std::size_t>(nx), 0.0);
  std::vector<double> halo_s(static_cast<std::size_t>(nx), 0.0);
  if (west >= 0)
    halo_w = (co_await comm.recv(rank_, west, kTagWest))
                 .as<std::vector<double>>();
  if (east >= 0)
    halo_e = (co_await comm.recv(rank_, east, kTagEast))
                 .as<std::vector<double>>();
  if (north >= 0)
    halo_n = (co_await comm.recv(rank_, north, kTagNorth))
                 .as<std::vector<double>>();
  if (south >= 0)
    halo_s = (co_await comm.recv(rank_, south, kTagSouth))
                 .as<std::vector<double>>();

  // Explicit 5-point update; Neumann (insulated) boundaries at the
  // global domain edge.
  const double cdx = cfg_.alpha * dt_ / (cfg_.dx * cfg_.dx);
  const double cdy = cfg_.alpha * dt_ / (cfg_.dy * cfg_.dy);
  const auto value_at = [&](std::int64_t i, std::int64_t j) {
    if (i < 0) return west >= 0 ? halo_w[static_cast<std::size_t>(j)]
                                : field_at(0, j);
    if (i >= nx) return east >= 0 ? halo_e[static_cast<std::size_t>(j)]
                                  : field_at(nx - 1, j);
    if (j < 0) return north >= 0 ? halo_n[static_cast<std::size_t>(i)]
                                 : field_at(i, 0);
    if (j >= ny) return south >= 0 ? halo_s[static_cast<std::size_t>(i)]
                                   : field_at(i, ny - 1);
    return field_at(i, j);
  };
  double* out = next_.data();
  for (std::int64_t i = 0; i < nx; ++i) {
    for (std::int64_t j = 0; j < ny; ++j) {
      const double c = field_at(i, j);
      const double lap_x = value_at(i - 1, j) - 2.0 * c + value_at(i + 1, j);
      const double lap_y = value_at(i, j - 1) - 2.0 * c + value_at(i, j + 1);
      *out++ = c + cdx * lap_x + cdy * lap_y;
    }
  }
  std::swap(field_, next_);
  ++step_count_;
}

double Heat2d::local_heat() const {
  double s = 0.0;
  for (double v : field_.flat()) s += v;
  return s;
}

double Heat2d::step_cost(std::int64_t cells, double cell_rate) {
  return static_cast<double>(cells) / cell_rate;
}

}  // namespace deisa::apps
