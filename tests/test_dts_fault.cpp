// Fault-handling tests for the task system: retries of transient
// failures, cancellation semantics, worker memory accounting, stale
// lifecycle reports, heartbeat-based failure detection, lost-key
// re-execution, the external re-arm/re-push protocol, and sharded
// recovery (worker kills at shards > 1 produce byte-identical results).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "deisa/dts/runtime.hpp"
#include "deisa/fault/fault.hpp"
#include "deisa/harness/scenario.hpp"

namespace dts = deisa::dts;
namespace fault = deisa::fault;
namespace harness = deisa::harness;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

struct TestCluster {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit TestCluster(int workers = 2, double heartbeat_timeout = 0.0,
                       double repush_timeout = 60.0) {
    net::ClusterParams p;
    p.physical_nodes = workers + 4;
    cluster = std::make_unique<net::Cluster>(eng, p);
    std::vector<int> wn;
    for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
    dts::RuntimeParams rp;
    rp.scheduler.service_base = 1e-4;  // fast tests
    rp.scheduler.service_per_task = 0;
    rp.scheduler.service_per_key = 0;
    rp.scheduler.heartbeat_timeout = heartbeat_timeout;
    rp.scheduler.repush_timeout = repush_timeout;
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn, rp);
    rt->start();
    client = &rt->make_client(1);
  }
};

dts::Data int_data(int v) { return dts::Data::make<int>(v, sizeof(int)); }

std::vector<dts::Key> no_keys() { return {}; }
template <typename... K>
std::vector<dts::Key> keys(K... k) {
  return std::vector<dts::Key>{dts::Key(k)...};
}

sim::Co<void> flaky_flow(TestCluster& tc, int fails, int retries, int& result,
                         bool& threw) {
  auto attempts = std::make_shared<int>(0);
  std::vector<dts::TaskSpec> tasks;
  dts::TaskSpec flaky(
      "flaky", no_keys(),
      [attempts, fails](const std::vector<dts::Data>&) -> dts::Data {
        if ((*attempts)++ < fails) throw std::runtime_error("transient");
        return int_data(7);
      });
  flaky.retries = retries;
  tasks.push_back(std::move(flaky));
  co_await tc.client->submit(std::move(tasks), keys("flaky"));
  try {
    result = (co_await tc.client->gather("flaky")).as<int>();
  } catch (const deisa::util::Error&) {
    threw = true;
  }
  co_await tc.rt->shutdown();
}

TEST(Fault, RetriesRecoverTransientFailures) {
  TestCluster tc(2);
  int result = 0;
  bool threw = false;
  tc.eng.spawn(flaky_flow(tc, /*fails=*/2, /*retries=*/3, result, threw));
  tc.eng.run();
  EXPECT_FALSE(threw);
  EXPECT_EQ(result, 7);
  EXPECT_EQ(tc.rt->scheduler().counters()[dts::SchedCounter::kRetries], 2u);
  EXPECT_EQ(tc.rt->scheduler().state_of("flaky"), dts::TaskState::kMemory);
}

TEST(Fault, RetriesExhaustedStillErrs) {
  TestCluster tc(2);
  int result = 0;
  bool threw = false;
  tc.eng.spawn(flaky_flow(tc, /*fails=*/5, /*retries=*/2, result, threw));
  tc.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(tc.rt->scheduler().counters()[dts::SchedCounter::kRetries], 2u);
  EXPECT_EQ(tc.rt->scheduler().state_of("flaky"), dts::TaskState::kErred);
}

TEST(Fault, ZeroRetriesFailImmediately) {
  TestCluster tc(1);
  int result = 0;
  bool threw = false;
  tc.eng.spawn(flaky_flow(tc, /*fails=*/1, /*retries=*/0, result, threw));
  tc.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(tc.rt->scheduler().counters()[dts::SchedCounter::kRetries], 0u);
}

sim::Co<void> cancel_external_flow(TestCluster& tc, std::string& error) {
  std::vector<int> pw;
  pw.push_back(0);
  co_await tc.client->external_futures(keys("never-arrives"), std::move(pw));
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("dependent", keys("never-arrives"),
                     [](const std::vector<dts::Data>&) {
                       return int_data(0);
                     });
  co_await tc.client->submit(std::move(tasks), keys("dependent"));
  co_await tc.eng.delay(1.0);
  // The simulation died; cancel the external task to release the graph.
  co_await tc.client->cancel("never-arrives");
  try {
    (void)co_await tc.client->gather("dependent");
  } catch (const deisa::util::Error& e) {
    error = e.what();
  }
  co_await tc.rt->shutdown();
}

TEST(Fault, CancellingExternalTaskPoisonsDependents) {
  // Without cancel, a dead simulation would leave the analytics graph
  // waiting forever; cancel unblocks every waiter with an error.
  TestCluster tc(1);
  std::string error;
  tc.eng.spawn(cancel_external_flow(tc, error));
  tc.eng.run();
  EXPECT_NE(error.find("dependent"), std::string::npos);
  EXPECT_EQ(tc.rt->scheduler().state_of("never-arrives"),
            dts::TaskState::kErred);
  EXPECT_EQ(tc.rt->scheduler().state_of("dependent"),
            dts::TaskState::kErred);
}

sim::Co<void> cancel_finished_flow(TestCluster& tc, int& result) {
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("done", no_keys(), [](const std::vector<dts::Data>&) {
    return int_data(5);
  });
  co_await tc.client->submit(std::move(tasks), keys("done"));
  (void)co_await tc.client->wait_key("done");
  co_await tc.client->cancel("done");  // advisory on finished tasks
  result = (co_await tc.client->gather("done")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Fault, CancelOnFinishedTaskIsAdvisory) {
  TestCluster tc(1);
  int result = 0;
  tc.eng.spawn(cancel_finished_flow(tc, result));
  tc.eng.run();
  EXPECT_EQ(result, 5);
  EXPECT_EQ(tc.rt->scheduler().state_of("done"), dts::TaskState::kMemory);
}

sim::Co<void> cancel_late_finish_flow(TestCluster& tc) {
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("slow", no_keys(),
                     [](const std::vector<dts::Data>&) { return int_data(1); },
                     /*cost=*/2.0);
  co_await tc.client->submit(std::move(tasks), keys("slow"));
  co_await tc.eng.delay(0.5);          // now processing on a worker
  co_await tc.client->cancel("slow");  // erred while still running
  co_await tc.eng.delay(5.0);          // the task_finished arrives late
  co_await tc.rt->shutdown();
}

TEST(Fault, CancelThenLateCompletionStaysErred) {
  // A task cancelled mid-execution still reports task_finished when the
  // worker completes it; that stale report used to resurrect the task
  // into memory. It must be dropped and the task stay terminal.
  TestCluster tc(1);
  tc.eng.spawn(cancel_late_finish_flow(tc));
  tc.eng.run();
  EXPECT_EQ(tc.rt->scheduler().state_of("slow"), dts::TaskState::kErred);
  EXPECT_EQ(
      tc.rt->scheduler().counters()[dts::SchedCounter::kStaleTaskFinished], 1u);
}

sim::Co<void> cancel_external_push_flow(TestCluster& tc, int& ack) {
  std::vector<int> pw;
  pw.push_back(0);
  co_await tc.client->external_futures(keys("ext"), std::move(pw));
  co_await tc.client->cancel("ext");
  // The simulation-side bridge, unaware of the cancel, pushes the block.
  ack = co_await tc.client->scatter("ext", int_data(3), 0, /*external=*/true);
  co_await tc.rt->shutdown();
}

TEST(Fault, CancelExternalThenBridgePushIsDiscarded) {
  // Pushing to a cancelled external task used to trip a DEISA_CHECK and
  // abort the scheduler; it must be acknowledged and discarded so the
  // producer keeps stepping.
  TestCluster tc(1);
  int ack = 0;
  tc.eng.spawn(cancel_external_push_flow(tc, ack));
  tc.eng.run();
  EXPECT_EQ(ack, dts::kAckDiscarded);
  EXPECT_EQ(tc.rt->scheduler().state_of("ext"), dts::TaskState::kErred);
  EXPECT_EQ(
      tc.rt->scheduler().counters()[dts::SchedCounter::kStaleUpdateData], 1u);
}

sim::Co<void> poisoned_waiter_flow(TestCluster& tc, std::string& error,
                                   bool& released) {
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("boom", no_keys(),
                     [](const std::vector<dts::Data>&) -> dts::Data {
                       throw std::runtime_error("boom");
                     },
                     /*cost=*/1.0);
  tasks.emplace_back("down", keys("boom"),
                     [](const std::vector<dts::Data>&) { return int_data(2); });
  co_await tc.client->submit(std::move(tasks), keys("down"));
  try {
    // Registers the waiter while "boom" is still running: the poisoning
    // cascade must release it, not leave it hanging.
    (void)co_await tc.client->gather("down");
  } catch (const deisa::util::Error& e) {
    error = e.what();
  }
  released = true;
  co_await tc.rt->shutdown();
}

TEST(Fault, ErredDependencyPoisonsBlockedWaiters) {
  TestCluster tc(2);
  std::string error;
  bool released = false;
  tc.eng.spawn(poisoned_waiter_flow(tc, error, released));
  tc.eng.run();
  EXPECT_TRUE(released);
  EXPECT_NE(error.find("down"), std::string::npos);
  EXPECT_EQ(tc.rt->scheduler().state_of("boom"), dts::TaskState::kErred);
  EXPECT_EQ(tc.rt->scheduler().state_of("down"), dts::TaskState::kErred);
}

sim::Co<void> heartbeat_loss_flow(TestCluster& tc) {
  co_await tc.eng.delay(2.0);  // heartbeats flowing normally
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(10.0);  // detector times the silence out
  co_await tc.rt->shutdown();
}

TEST(Fault, HeartbeatLossDetectsDeadWorker) {
  TestCluster tc(2, /*heartbeat_timeout=*/3.0);
  tc.eng.spawn(heartbeat_loss_flow(tc));
  tc.eng.run();
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_TRUE(s.worker_is_dead(0));
  EXPECT_FALSE(s.worker_is_dead(1));
  EXPECT_EQ(s.live_workers(), 1u);
  EXPECT_EQ(s.counters()[dts::SchedCounter::kWorkersLost], 1u);
}

sim::Co<void> lost_key_flow(TestCluster& tc, int& result) {
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("a", no_keys(),
                     [](const std::vector<dts::Data>&) { return int_data(20); },
                     /*cost=*/0.01, /*out_bytes=*/0, /*preferred_worker=*/0);
  tasks.emplace_back("b", keys("a"),
                     [](const std::vector<dts::Data>& in) {
                       return int_data(in[0].as<int>() * 2 + 2);
                     },
                     /*cost=*/0.01, /*out_bytes=*/0, /*preferred_worker=*/0);
  co_await tc.client->submit(std::move(tasks), keys("b"));
  (void)co_await tc.client->wait_key("b");  // both in memory on worker 0
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(12.0);  // detection + lineage re-execution
  result = (co_await tc.client->gather("b")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Fault, LostKeysRecomputedViaLineage) {
  TestCluster tc(2, /*heartbeat_timeout=*/3.0);
  int result = 0;
  tc.eng.spawn(lost_key_flow(tc, result));
  tc.eng.run();
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_EQ(result, 42);  // recomputed from lineage, same value
  EXPECT_EQ(s.counters()[dts::SchedCounter::kWorkersLost], 1u);
  // Both a and b lived on w0.
  EXPECT_EQ(s.counters()[dts::SchedCounter::kKeysRecomputed], 2u);
  EXPECT_EQ(s.state_of("a"), dts::TaskState::kMemory);
  EXPECT_EQ(s.state_of("b"), dts::TaskState::kMemory);
  EXPECT_GT(tc.rt->worker(1).tasks_executed(), 0u);
}

sim::Co<void> refetch_after_recovery_flow(dts::Runtime& rt, sim::Engine& eng,
                                          int& result) {
  dts::Client& client = rt.make_client(1);
  std::vector<dts::TaskSpec> tasks;
  // "big" on w2 takes ~20 s to move, so w0's single fetch slot is busy
  // while "k" on w1 dies and is recomputed on w2 (next to its input).
  tasks.emplace_back("big", no_keys(), nullptr, /*cost=*/0.0,
                     /*out_bytes=*/250'000'000'000ull, /*preferred_worker=*/2);
  tasks.emplace_back("seed", no_keys(),
                     [](const std::vector<dts::Data>&) { return int_data(20); },
                     /*cost=*/0.0, /*out_bytes=*/0, /*preferred_worker=*/2);
  tasks.emplace_back("k", keys("seed"),
                     [](const std::vector<dts::Data>& in) { return in[0]; },
                     /*cost=*/0.0, /*out_bytes=*/0, /*preferred_worker=*/1);
  tasks.emplace_back("t", keys("big", "k"),
                     [](const std::vector<dts::Data>& in) {
                       return int_data(in[1].as<int>() + 1);
                     },
                     /*cost=*/0.0, /*out_bytes=*/0, /*preferred_worker=*/0);
  co_await client.submit(std::move(tasks), keys("t"));
  (void)co_await client.wait_key("k");
  co_await eng.delay(0.5);  // t runs on w0: big holds the slot, k queues
  rt.worker(1).crash();
  result = (co_await client.gather("t")).as<int>();
  co_await rt.shutdown();
}

TEST(Fault, ReassignedAttemptDoesNotJoinAFetchFromTheDead) {
  // The first attempt of t queues its fetch of k from w1 behind the slow
  // fetch of big. w1 dies; recovery recomputes k on w2 and re-assigns t
  // to w0 before that queued fetch ever leaves. The new attempt must
  // fetch k from w2, not join the flight to the corpse: that one ends
  // with a refusal, and both attempts would then give up.
  sim::Engine eng;
  net::ClusterParams cp;
  cp.physical_nodes = 7;
  net::Cluster cluster(eng, cp);
  dts::RuntimeParams rp;
  rp.scheduler.service_base = 1e-4;
  rp.scheduler.service_per_task = 0;
  rp.scheduler.service_per_key = 0;
  rp.scheduler.heartbeat_timeout = 3.0;
  rp.worker.max_concurrent_fetches = 1;
  std::vector<int> wn;
  for (int i = 0; i < 3; ++i) wn.push_back(2 + i);
  dts::Runtime rt(eng, cluster, 0, wn, rp);
  rt.start();
  int result = 0;
  eng.spawn(refetch_after_recovery_flow(rt, eng, result));
  EXPECT_TRUE(eng.run_until(600.0));
  EXPECT_EQ(result, 21);
  EXPECT_EQ(rt.scheduler().counters()[dts::SchedCounter::kWorkersLost], 1u);
  EXPECT_EQ(rt.scheduler().counters()[dts::SchedCounter::kTasksRerun], 1u);
}

sim::Co<void> rearm_repush_flow(TestCluster& tc, int& first_ack,
                                dts::RepushList& assignments, int& value) {
  std::vector<int> pw;
  pw.push_back(0);
  co_await tc.client->external_futures(keys("blk"), std::move(pw));
  first_ack = co_await tc.client->scatter("blk", int_data(9), 0,
                                          /*external=*/true);
  co_await tc.eng.delay(1.0);
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(10.0);  // detection re-arms blk for re-push
  assignments = co_await tc.client->repush_keys();
  for (const auto& [key, target] : assignments)
    (void)co_await tc.client->scatter(key, int_data(9), target,
                                      /*external=*/true);
  value = (co_await tc.client->gather("blk")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Fault, LostExternalKeyRearmedAndRepushed) {
  // External data has no lineage; the producer must replay it. The
  // scheduler re-arms the key, re-routes the preselection to a survivor,
  // and hands the assignment out via kRepushKeys.
  TestCluster tc(2, /*heartbeat_timeout=*/3.0);
  int first_ack = -1;
  dts::RepushList assignments;
  int value = 0;
  tc.eng.spawn(rearm_repush_flow(tc, first_ack, assignments, value));
  tc.eng.run();
  EXPECT_EQ(first_ack, 0);  // normal registration at worker 0
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].first, "blk");
  EXPECT_EQ(assignments[0].second, 1);  // re-routed to the survivor
  EXPECT_EQ(value, 9);
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_EQ(s.counters()[dts::SchedCounter::kExternalRearmed], 1u);
  EXPECT_EQ(s.state_of("blk"), dts::TaskState::kMemory);
}

sim::Co<void> never_repushed_flow(TestCluster& tc, std::string& error) {
  std::vector<int> pw;
  pw.push_back(0);
  co_await tc.client->external_futures(keys("gone"), std::move(pw));
  (void)co_await tc.client->scatter("gone", int_data(4), 0,
                                    /*external=*/true);
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(6.0);  // past detection: the key is re-armed
  try {
    // The producer never replays: the re-push deadline must err the key
    // out so this waiter fails instead of hanging forever.
    (void)co_await tc.client->gather("gone");
  } catch (const deisa::util::Error& e) {
    error = e.what();
  }
  co_await tc.rt->shutdown();
}

TEST(Fault, UnreplayedExternalKeyExpiresInsteadOfHanging) {
  TestCluster tc(2, /*heartbeat_timeout=*/3.0, /*repush_timeout=*/5.0);
  std::string error;
  tc.eng.spawn(never_repushed_flow(tc, error));
  tc.eng.run();
  EXPECT_NE(error.find("gone"), std::string::npos);
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_EQ(s.counters()[dts::SchedCounter::kRepushExpired], 1u);
  EXPECT_EQ(s.state_of("gone"), dts::TaskState::kErred);
}

sim::Co<void> duplicated_traffic_flow(TestCluster& tc, int& result) {
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("t", no_keys(),
                     [](const std::vector<dts::Data>&) { return int_data(6); },
                     /*cost=*/0.05);
  co_await tc.client->submit(std::move(tasks), keys("t"));
  result = (co_await tc.client->gather("t")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Fault, DuplicatedTaskFinishedIsDropped) {
  // Every idempotent message delivered twice: the duplicate
  // task_finished must be absorbed by the stale guard, not re-finish
  // (or corrupt) the task.
  TestCluster tc(2);
  fault::FaultPlan plan;
  plan.dup_prob = 1.0;
  plan.seed = 5;
  fault::FaultInjector inj(tc.eng, *tc.cluster, plan);
  inj.arm(*tc.rt);
  int result = 0;
  tc.eng.spawn(duplicated_traffic_flow(tc, result));
  tc.eng.run();
  EXPECT_EQ(result, 6);
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_EQ(s.state_of("t"), dts::TaskState::kMemory);
  EXPECT_GE(s.counters()[dts::SchedCounter::kStaleTaskFinished], 1u);
}

sim::Co<void> memory_flow(TestCluster& tc) {
  co_await tc.client->scatter("a", dts::Data::sized(1000), 0);
  co_await tc.client->scatter("b", dts::Data::sized(500), 0);
  co_await tc.client->scatter("b", dts::Data::sized(700), 0);  // replace
  co_await tc.rt->shutdown();
}

TEST(Fault, WorkerMemoryAccounting) {
  TestCluster tc(1);
  tc.eng.spawn(memory_flow(tc));
  tc.eng.run();
  auto& w = tc.rt->worker(0);
  EXPECT_EQ(w.keys_in_memory(), 2u);
  EXPECT_EQ(w.memory_bytes(), 1700u);       // replacement, not addition
  EXPECT_EQ(w.bytes_stored(), 2200u);       // cumulative throughput
  EXPECT_TRUE(w.release_key("a"));
  EXPECT_EQ(w.memory_bytes(), 700u);
  EXPECT_FALSE(w.release_key("a"));
}

// ---- sharded recovery: worker kills at shards > 1 ----

harness::ScenarioParams sharded_fault_params(int shards) {
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 2;
  p.block_bytes = 16 * 16 * sizeof(double);
  p.timesteps = 4;
  p.real_data = true;
  p.cluster.jitter_sigma = 0.0;
  p.sched.service_jitter_sigma = 0.0;
  p.shards = shards;
  return p;
}

TEST(ShardedFault, SeededWorkerKillMatchesFaultFreeResults) {
  // Shard 0 is the liveness authority: the death broadcast must reach
  // every shard so each one recovers its own slice of the lineage (and
  // parks its mirrors of lost keys). The acceptance bar is the same as
  // the single-scheduler recovery test: a killed worker changes nothing
  // about the analytics outputs, byte for byte.
  for (const int shards : {2, 4}) {
    const auto p = sharded_fault_params(shards);
    const auto clean = harness::run_scenario(harness::Pipeline::kDeisa3, p);
    ASSERT_FALSE(clean.singular_values.empty()) << "shards " << shards;
    EXPECT_EQ(clean.workers_killed, 0u);
    EXPECT_EQ(clean.recovery.workers_lost, 0u);

    auto pf = p;
    pf.faults.kills.emplace_back(1, clean.sim_end * 0.5);
    pf.faults.seed = 0xF0 + static_cast<std::uint64_t>(shards);
    const auto faulty = harness::run_scenario(harness::Pipeline::kDeisa3, pf);
    EXPECT_EQ(faulty.workers_killed, 1u) << "shards " << shards;
    // Exactly one death, counted once (by shard 0) across all shards.
    EXPECT_EQ(faulty.recovery.workers_lost, 1u) << "shards " << shards;
    EXPECT_GT(faulty.recovery.external_rearmed + faulty.recovery.tasks_rerun +
                  faulty.recovery.keys_recomputed +
                  faulty.recovery.external_rerouted,
              0u)
        << "shards " << shards;
    ASSERT_EQ(faulty.shard_recovery.size(),
              static_cast<std::size_t>(shards));
    // The per-shard breakdown really sums to the aggregate.
    std::uint64_t lost = 0, rerun = 0;
    for (const auto& sr : faulty.shard_recovery) {
      lost += sr.workers_lost;
      rerun += sr.tasks_rerun;
    }
    EXPECT_EQ(lost, faulty.recovery.workers_lost);
    EXPECT_EQ(rerun, faulty.recovery.tasks_rerun);

    ASSERT_EQ(faulty.singular_values.size(), clean.singular_values.size());
    for (std::size_t i = 0; i < clean.singular_values.size(); ++i) {
      // memcmp, not ==: byte-identical, including signed-zero/NaN bits.
      EXPECT_EQ(std::memcmp(&faulty.singular_values[i],
                            &clean.singular_values[i], sizeof(double)),
                0)
          << "shards " << shards << " sv[" << i << "]: "
          << faulty.singular_values[i] << " vs " << clean.singular_values[i];
    }
    ASSERT_EQ(faulty.explained_variance.size(),
              clean.explained_variance.size());
    for (std::size_t i = 0; i < clean.explained_variance.size(); ++i)
      EXPECT_EQ(std::memcmp(&faulty.explained_variance[i],
                            &clean.explained_variance[i], sizeof(double)),
                0)
          << "shards " << shards << " ev[" << i << "]";
  }
}

}  // namespace
