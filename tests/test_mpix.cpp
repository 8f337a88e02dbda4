// Tests for the mini-MPI layer: point-to-point matching, wildcards,
// ordering, and the barrier used by the Heat2D miniapp.
#include <gtest/gtest.h>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/mpix/comm.hpp"

namespace mpix = deisa::mpix;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

struct World {
  sim::Engine eng;
  net::ClusterParams params;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<mpix::Comm> comm;

  explicit World(int ranks, int ranks_per_node = 2) {
    params.physical_nodes = std::max(4, ranks);
    params.leaf_radix = 8;
    params.uplinks_per_leaf = 4;
    params.jitter_sigma = 0.0;
    cluster = std::make_unique<net::Cluster>(eng, params);
    std::vector<int> placement;
    for (int r = 0; r < ranks; ++r) placement.push_back(r / ranks_per_node);
    comm = std::make_unique<mpix::Comm>(*cluster, std::move(placement));
  }
};

sim::Co<void> ping(mpix::Comm& comm) {
  co_await comm.send_value<int>(0, 1, /*tag=*/5, 99);
}

sim::Co<void> pong(mpix::Comm& comm, int& out) {
  const mpix::Message m = co_await comm.recv(1, 0, 5);
  out = m.as<int>();
}

TEST(Comm, PointToPointDeliversPayload) {
  World w(2);
  int out = 0;
  w.eng.spawn(ping(*w.comm));
  w.eng.spawn(pong(*w.comm, out));
  w.eng.run();
  EXPECT_EQ(out, 99);
}

sim::Co<void> send_two_tags(mpix::Comm& comm) {
  co_await comm.send_value<int>(0, 1, 10, 100);
  co_await comm.send_value<int>(0, 1, 20, 200);
}

sim::Co<void> recv_tag20_first(mpix::Comm& comm, std::vector<int>& got) {
  const auto m20 = co_await comm.recv(1, mpix::kAnySource, 20);
  got.push_back(m20.as<int>());
  const auto m10 = co_await comm.recv(1, mpix::kAnySource, 10);
  got.push_back(m10.as<int>());
}

TEST(Comm, TagMatchingOutOfOrder) {
  World w(2);
  std::vector<int> got;
  w.eng.spawn(send_two_tags(*w.comm));
  w.eng.spawn(recv_tag20_first(*w.comm, got));
  w.eng.run();
  EXPECT_EQ(got, (std::vector<int>{200, 100}));
}

TEST(Comm, SameTagPreservesFifoOrder) {
  World w(2);
  std::vector<int> got;
  w.eng.spawn([](mpix::Comm& c) -> sim::Co<void> {
    for (int i = 0; i < 5; ++i) co_await c.send_value<int>(0, 1, 7, i);
  }(*w.comm));
  w.eng.spawn([](mpix::Comm& c, std::vector<int>& out) -> sim::Co<void> {
    for (int i = 0; i < 5; ++i) {
      const auto m = co_await c.recv(1, 0, 7);
      out.push_back(m.as<int>());
    }
  }(*w.comm, got));
  w.eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

sim::Co<void> barrier_actor(mpix::Comm& comm, int rank, sim::Time work,
                            std::vector<double>& after) {
  co_await comm.engine().delay(work);
  co_await comm.barrier(rank);
  after[static_cast<std::size_t>(rank)] = comm.engine().now();
}

TEST(Comm, BarrierWaitsForSlowestRank) {
  World w(8);
  std::vector<double> after(8, 0.0);
  for (int r = 0; r < 8; ++r)
    w.eng.spawn(barrier_actor(*w.comm, r, r == 3 ? 5.0 : 0.1, after));
  w.eng.run();
  for (int r = 0; r < 8; ++r) EXPECT_GE(after[static_cast<std::size_t>(r)], 5.0);
}

TEST(Comm, RepeatedBarriersDoNotCrosstalk) {
  World w(4);
  std::vector<int> phases(4, 0);
  for (int r = 0; r < 4; ++r) {
    w.eng.spawn([](mpix::Comm& c, int rank, std::vector<int>& ph)
                    -> sim::Co<void> {
      for (int i = 0; i < 3; ++i) {
        co_await c.barrier(rank);
        ++ph[static_cast<std::size_t>(rank)];
      }
    }(*w.comm, r, phases));
  }
  w.eng.run();
  EXPECT_EQ(phases, (std::vector<int>{3, 3, 3, 3}));
}

TEST(Comm, SingleRankCollectivesAreNoOps) {
  // With one rank the barrier has no rounds: it sends nothing and takes
  // no simulated time, however often it is entered.
  World w(1);
  int passed = 0;
  w.eng.spawn([](mpix::Comm& c, int& n) -> sim::Co<void> {
    for (int i = 0; i < 3; ++i) {
      co_await c.barrier(0);
      ++n;
    }
  }(*w.comm, passed));
  w.eng.run();
  EXPECT_EQ(passed, 3);
  EXPECT_DOUBLE_EQ(w.eng.now(), 0.0);
}

TEST(Comm, InvalidRankThrows) {
  World w(2);
  EXPECT_THROW(w.comm->node_of(5), deisa::util::Error);
}

}  // namespace
