// Causal-graph reconstruction and critical-path attribution tests.
//
// The small-DAG test pins the backward walk against a brute-force
// longest-path oracle; the scenario tests pin the two properties the
// attribution is sold on: the category breakdown partitions the makespan
// exactly, and the causal DAG shape is a function of the workflow — not
// of the substrate that executed it or of a round-trip through the
// Chrome trace exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <vector>

#include "deisa/harness/scenario.hpp"
#include "deisa/obs/causal.hpp"
#include "deisa/obs/export.hpp"
#include "deisa/obs/trace.hpp"
#include "deisa/obs/trace_io.hpp"

namespace harness = deisa::harness;
namespace obs = deisa::obs;

namespace {

constexpr double kTestTimeScale = 0.01;

harness::ScenarioParams traced_params(harness::Substrate substrate) {
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 2;
  p.block_bytes = 16 * 16 * sizeof(double);  // real math stays tiny
  p.timesteps = 4;
  p.real_data = true;
  p.cluster.jitter_sigma = 0.0;
  p.sched.service_jitter_sigma = 0.0;
  p.substrate = substrate;
  p.time_scale = kTestTimeScale;
  p.trace = true;
  return p;
}

/// Brute-force longest path (by summed span duration) ending at `id`.
double oracle_longest(
    const obs::CausalGraph& g, obs::CauseId id,
    std::map<obs::CauseId, std::vector<obs::CauseId>>& preds,
    std::map<obs::CauseId, double>& memo) {
  if (const auto it = memo.find(id); it != memo.end()) return it->second;
  const obs::CausalNode* n = g.find(id);
  EXPECT_NE(n, nullptr);
  double best = 0.0;
  for (const obs::CauseId p : preds[id])
    best = std::max(best, oracle_longest(g, p, preds, memo));
  const double total = best + (n->t1 - n->t0);
  memo[id] = total;
  return total;
}

TEST(Causal, SmallDagCriticalPathMatchesBruteForceOracle) {
  obs::Recorder rec;
  const auto track = rec.track("worker-0", "execute");
  // Ideal schedule: every span starts exactly when its latest
  // predecessor finishes, so the greedy max-t1 backward walk must find
  // the same chain as the classic longest-duration-path oracle.
  //
  //   A(1) [0,2]   B(2) [0,3]
  //      \  /  \    |
  //     C(3) [3,5]  D(4) [3,4]
  //          \      /
  //          E(5) [5,8]
  using EK = obs::EdgeKind;
  rec.complete(track, "A", 0.0, 2.0, {}, /*self=*/1);
  rec.complete(track, "B", 0.0, 3.0, {}, /*self=*/2);
  rec.complete(track, "C", 3.0, 2.0, {}, /*self=*/3, /*cause=*/1, EK::kDep);
  rec.edge(2, 3, EK::kDep, track);
  rec.complete(track, "D", 3.0, 1.0, {}, /*self=*/4, /*cause=*/2, EK::kDep);
  rec.complete(track, "E", 5.0, 3.0, {}, /*self=*/5, /*cause=*/3, EK::kDep);
  rec.edge(4, 5, EK::kDep, track);

  const obs::CausalGraph g = obs::build_causal_graph(rec);
  EXPECT_EQ(g.nodes.size(), 5u);
  EXPECT_EQ(g.edges.size(), 5u);  // 3 primary causes + 2 extra kEdge
  EXPECT_EQ(g.dangling_edges, 0u);

  std::map<obs::CauseId, std::vector<obs::CauseId>> preds;
  for (const obs::CausalEdge& e : g.edges) preds[e.dst].push_back(e.src);
  std::map<obs::CauseId, double> memo;
  double oracle = 0.0;
  for (const obs::CausalNode& n : g.nodes)
    oracle = std::max(oracle, oracle_longest(g, n.id, preds, memo));
  EXPECT_DOUBLE_EQ(oracle, 8.0);  // B(3) -> C(2) -> E(3)

  const obs::CriticalPathReport rep = obs::analyze_critical_path(g);
  EXPECT_DOUBLE_EQ(rep.makespan(), 8.0);
  // All path nodes are compute and the schedule has no gaps, so the
  // compute category must equal the oracle's longest path exactly.
  EXPECT_DOUBLE_EQ(rep.category(obs::Category::kCompute), oracle);
  EXPECT_DOUBLE_EQ(rep.category(obs::Category::kIdle), 0.0);
  ASSERT_EQ(rep.path.size(), 3u);
  EXPECT_EQ(rep.path[0].node, 5u);  // end -> origin order
  EXPECT_EQ(rep.path[1].node, 3u);
  EXPECT_EQ(rep.path[2].node, 2u);
  for (const obs::PathStep& s : rep.path)
    EXPECT_DOUBLE_EQ(s.gap_before, 0.0);
}

TEST(Causal, GapsOnThePathAreAttributedToIdle) {
  obs::Recorder rec;
  const auto track = rec.track("worker-0", "execute");
  rec.complete(track, "A", 0.0, 1.0, {}, /*self=*/1);
  // B starts 2 s after A finished: the walk must book the gap as idle.
  rec.complete(track, "B", 3.0, 1.0, {}, /*self=*/2, /*cause=*/1,
               obs::EdgeKind::kDep);
  const obs::CriticalPathReport rep =
      obs::analyze_critical_path(obs::build_causal_graph(rec));
  EXPECT_DOUBLE_EQ(rep.makespan(), 4.0);
  EXPECT_DOUBLE_EQ(rep.category(obs::Category::kCompute), 2.0);
  EXPECT_DOUBLE_EQ(rep.category(obs::Category::kIdle), 2.0);
  ASSERT_EQ(rep.path.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.path[0].gap_before, 2.0);
}

TEST(Causal, Deisa3BreakdownPartitionsMakespan) {
  auto p = traced_params(harness::Substrate::kSim);
  const auto res = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  ASSERT_NE(res.trace, nullptr);
  EXPECT_EQ(res.trace->dropped(), 0u);

  const obs::CausalGraph g = obs::build_causal_graph(*res.trace);
  EXPECT_GT(g.nodes.size(), 0u);
  EXPECT_GT(g.edges.size(), 0u);
  EXPECT_EQ(g.dangling_edges, 0u);

  const obs::CriticalPathReport rep = obs::analyze_critical_path(g);
  EXPECT_GT(rep.makespan(), 0.0);
  const double sum = std::accumulate(rep.category_seconds.begin(),
                                     rep.category_seconds.end(), 0.0);
  // The walk partitions [t_begin, t_end] exactly; allow only rounding.
  EXPECT_NEAR(sum, rep.makespan(), 1e-9 * std::max(1.0, rep.makespan()));
  EXPECT_FALSE(rep.path.empty());
  EXPECT_FALSE(rep.contributors.empty());
  // Every category stays within the window, none negative.
  for (const double s : rep.category_seconds) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, rep.makespan() + 1e-9);
  }
  // Utilization is sane: fractions in [0,1], workers did something.
  ASSERT_FALSE(rep.utilization.empty());
  bool any_busy = false;
  for (const obs::ActorUtilization& u : rep.utilization) {
    EXPECT_GE(u.busy_seconds, 0.0);
    for (const double f : u.bins) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0 + 1e-9);
    }
    any_busy = any_busy || u.busy_seconds > 0.0;
  }
  EXPECT_TRUE(any_busy);
}

TEST(Causal, SimAndThreadsYieldSameDagShape) {
  const auto r_sim = harness::run_scenario(
      harness::Pipeline::kDeisa3, traced_params(harness::Substrate::kSim));
  const auto r_thr = harness::run_scenario(
      harness::Pipeline::kDeisa3, traced_params(harness::Substrate::kThreads));
  ASSERT_NE(r_sim.trace, nullptr);
  ASSERT_NE(r_thr.trace, nullptr);

  const obs::CausalGraph g_sim = obs::build_causal_graph(*r_sim.trace);
  const obs::CausalGraph g_thr = obs::build_causal_graph(*r_thr.trace);
  // The causal DAG is a property of the workflow, not the substrate:
  // heartbeats and other uncaused bookkeeping stay out, so node and edge
  // counts match even though wall-clock timings differ completely.
  EXPECT_EQ(g_sim.nodes.size(), g_thr.nodes.size());
  EXPECT_EQ(g_sim.edges.size(), g_thr.edges.size());
  EXPECT_EQ(g_sim.dangling_edges, 0u);
  EXPECT_EQ(g_thr.dangling_edges, 0u);
  // Edge-kind histograms match too — same causal structure, not just
  // coincidentally equal totals.
  std::map<obs::EdgeKind, std::size_t> k_sim, k_thr;
  for (const obs::CausalEdge& e : g_sim.edges) ++k_sim[e.kind];
  for (const obs::CausalEdge& e : g_thr.edges) ++k_thr[e.kind];
  EXPECT_EQ(k_sim, k_thr);
}

TEST(Causal, Deisa2TraceSurvivesChromeRoundTrip) {
  auto p = traced_params(harness::Substrate::kSim);
  const auto res = harness::run_scenario(harness::Pipeline::kDeisa2, p);
  ASSERT_NE(res.trace, nullptr);

  std::ostringstream out;
  obs::write_chrome_trace(*res.trace, out);
  std::istringstream in(out.str());
  const obs::TraceData loaded = obs::load_chrome_trace(in);
  EXPECT_EQ(loaded.events.size(), res.trace->size());
  EXPECT_EQ(loaded.tracks.size(), res.trace->track_count());

  // Analysis of the loaded trace matches analysis of the live recorder.
  const obs::CausalGraph g_live = obs::build_causal_graph(*res.trace);
  const obs::CausalGraph g_load = obs::build_causal_graph(loaded);
  EXPECT_EQ(g_live.nodes.size(), g_load.nodes.size());
  EXPECT_EQ(g_live.edges.size(), g_load.edges.size());
  const obs::CriticalPathReport a = obs::analyze_critical_path(g_live);
  const obs::CriticalPathReport b = obs::analyze_critical_path(g_load);
  EXPECT_NEAR(a.makespan(), b.makespan(), 1e-5);
  for (std::size_t c = 0; c < obs::kNumCategories; ++c)
    EXPECT_NEAR(a.category_seconds[c], b.category_seconds[c],
                1e-5 * std::max(1.0, a.makespan()));
}

}  // namespace
