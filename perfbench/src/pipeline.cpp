#include "pipeline.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <optional>

#include "deisa/apps/heat2d.hpp"
#include "deisa/core/adaptor.hpp"
#include "deisa/core/bridge.hpp"
#include "deisa/ml/pca.hpp"
#include "deisa/mpix/comm.hpp"
#include "deisa/obs/dataplane.hpp"
#include "deisa/obs/observation.hpp"
#include "deisa/util/units.hpp"

namespace perfbench {

namespace arr = deisa::array;
namespace core = deisa::core;
namespace ml = deisa::ml;
namespace net = deisa::net;
namespace obs = deisa::obs;
namespace sim = deisa::sim;
using harness::ScenarioParams;

namespace {

Workload make_workload(std::string name, harness::Pipeline pipeline,
                       ScenarioParams p, int model_seeds, bool scale_by_probe,
                       std::string why) {
  Workload w;
  w.name = std::move(name);
  w.pipeline = pipeline;
  w.params = std::move(p);
  w.model_seeds = model_seeds;
  w.scale_by_probe = scale_by_probe;
  w.why = std::move(why);
  return w;
}

std::vector<Workload> build_workloads() {
  using deisa::util::kKiB;
  using deisa::util::kMiB;
  std::vector<Workload> out;

  ScenarioParams ipca;
  ipca.ranks = 4;
  ipca.workers = 2;
  ipca.block_bytes = 128 * kKiB;
  ipca.timesteps = 8;
  ipca.real_data = true;
  out.push_back(make_workload(
      "insitu-ipca", harness::Pipeline::kDeisa3, ipca, 8, false,
      "real Heat2D data and IPCA math on 4 ranks: the time is in the "
      "stencil, slab assembly and linalg kernels, and the singular values "
      "are checkable"));

  // The paper's weak-scaling setting on the sharded, garbage-collected
  // dts path.
  ScenarioParams gc;
  gc.ranks = 256;
  gc.workers = 128;
  gc.block_bytes = 256 * kMiB;
  gc.timesteps = 100;
  gc.contract_fraction = 0.5;
  gc.shards = 4;
  gc.release_consumed = true;
  gc.data_plane = deisa::dts::DataPlane::kProxy;
  out.push_back(make_workload(
      "sharded-gc", harness::Pipeline::kDeisa3, gc, 12, true,
      "the paper's weak-scaling traffic with no kernels on 4 scheduler "
      "shards: scheduler, workers, bridges and contract filter, barriers, "
      "net model, sim engine, cross-shard subscribe/notify/release-ack "
      "protocol, refcount GC and proxy tokens"));

  return out;
}

/// Restart the kernel's peak-RSS (VmHWM) tracking for this process. Where
/// /proc/self/clear_refs is not writable the peak stays the process's.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak RSS since the last reset_peak_rss() (VmHWM), in MiB; the process
/// peak when the kernel's value cannot be read.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

core::Mode mode_of(harness::Pipeline p) {
  return p == harness::Pipeline::kDeisa2 ? core::Mode::kDeisa2
                                         : core::Mode::kDeisa3;
}

ml::InSituIpcaOptions ipca_options(const ScenarioParams& p,
                                   const std::string& name) {
  ml::InSituIpcaOptions o;
  o.pca.n_components = p.n_components;
  o.pca.randomized = true;
  o.labels = {"t", "X", "Y"};
  o.feature_labels = {"X"};
  o.sample_labels = {"Y"};
  o.cost = p.analytics;
  o.name = name;
  o.distributed_update = !p.real_data;
  return o;
}

/// Contract selection: full time and X; leading fraction of Y, aligned to
/// block boundaries (at least one block row).
arr::Box contract_box(const core::VirtualArray& va, double fraction) {
  arr::Box box;
  box.lo.assign(va.shape.size(), 0);
  box.hi = va.shape;
  if (fraction < 1.0) {
    const std::int64_t blocks_y = va.shape[2] / va.subsize[2];
    const std::int64_t keep = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(fraction * blocks_y)));
    box.hi[2] = keep * va.subsize[2];
  }
  return box;
}

/// ChunkProvider over a block-aligned sub-box of a DArray: the analytics
/// graph references the contract-selected chunks only.
class SelectedArrayProvider final : public ml::ChunkProvider {
public:
  SelectedArrayProvider(const arr::DArray& da, const arr::Box& box)
      : darray_(&da) {
    arr::Index sub_shape(box.ndim());
    for (std::size_t d = 0; d < box.ndim(); ++d) sub_shape[d] = box.extent(d);
    sub_grid_ = arr::ChunkGrid(sub_shape, da.grid().chunk_shape());
    for (std::size_t d = 0; d < box.ndim(); ++d)
      chunk_offset_.push_back(box.lo[d] / da.grid().chunk_shape()[d]);
  }

  const arr::ChunkGrid& grid() const override { return sub_grid_; }

  std::vector<deisa::dts::Key> chunks(
      int /*submission*/, std::int64_t t,
      std::vector<deisa::dts::TaskSpec>& /*tasks*/) override {
    arr::Box slab;
    slab.lo.assign(sub_grid_.ndim(), 0);
    slab.hi = sub_grid_.shape();
    slab.lo[0] = t;
    slab.hi[0] = t + 1;
    std::vector<deisa::dts::Key> keys;
    for (const arr::Index& c : sub_grid_.chunks_overlapping(slab)) {
      arr::Index global = c;
      for (std::size_t d = 0; d < global.size(); ++d)
        global[d] += chunk_offset_[d];
      keys.push_back(darray_->key_of(global));
    }
    return keys;
  }

private:
  const arr::DArray* darray_;
  arr::ChunkGrid sub_grid_;
  std::vector<std::int64_t> chunk_offset_;
};

/// Kernel layer of an IPCA task, from its key (see ml/insitu.cpp).
Layer kernel_layer(const deisa::dts::Key& key) {
  if (key.find("/slab/") != std::string::npos) return Layer::kSlabAssemble;
  if (key.find("/state/") != std::string::npos) return Layer::kPartialFit;
  return Layer::kExtract;
}

/// Engine, cluster, runtime and communicator of one run, wired as the
/// harness wires them. A traced run puts the TracingExecutor and the
/// ForwardingTransport in front of the engine and the cluster.
struct World {
  World(const ScenarioParams& p, SimLedger* ledger)
      : params(p), cluster(engine, [&p] {
          net::ClusterParams c = p.cluster;
          c.jitter_seed = p.alloc_seed * 0x9e3779b9ULL + 7;
          return c;
        }()) {
    exec::Executor* ex = &engine;
    exec::Transport* tp = &cluster;
    if (ledger != nullptr) {
      traced_engine = std::make_unique<TracingExecutor>(engine, *ledger);
      traced_cluster =
          std::make_unique<ForwardingTransport>(cluster, *traced_engine, *ledger);
      ex = traced_engine.get();
      tp = traced_cluster.get();
    }
    DEISA_CHECK(p.nodes_needed() <= p.cluster.physical_nodes,
                "workload needs " << p.nodes_needed() << " nodes");
    const std::vector<int> nodes =
        net::allocate_nodes(p.cluster, p.nodes_needed(), p.alloc_seed);
    scheduler_node = nodes[0];
    client_node = nodes[1];
    const int worker_node_count =
        (p.workers + p.workers_per_node - 1) / p.workers_per_node;
    std::vector<int> worker_nodes;
    for (int w = 0; w < p.workers; ++w)
      worker_nodes.push_back(nodes[static_cast<std::size_t>(2 + w / p.workers_per_node)]);
    for (int r = 0; r < p.ranks; ++r)
      rank_nodes.push_back(nodes[static_cast<std::size_t>(
          2 + worker_node_count + r / p.ranks_per_node)]);

    deisa::dts::RuntimeParams rp;
    rp.scheduler = p.sched;
    rp.scheduler.seed = p.alloc_seed * 131 + 17;
    rp.worker.heartbeat_interval = p.worker_heartbeat_interval;
    rp.worker.max_concurrent_fetches = p.max_concurrent_fetches;
    rp.data_plane = p.data_plane;
    rp.scheduler.release_consumed = p.release_consumed;
    rp.shards = p.shards;
    runtime = std::make_unique<deisa::dts::Runtime>(*ex, *tp, scheduler_node,
                                                    worker_nodes, rp);
    comm = std::make_unique<deisa::mpix::Comm>(*tp, rank_nodes);
  }

  /// The executor the actors run on.
  exec::Executor& executor() {
    return traced_engine ? static_cast<exec::Executor&>(*traced_engine) : engine;
  }

  const ScenarioParams& params;
  sim::Engine engine;
  net::Cluster cluster;
  std::unique_ptr<TracingExecutor> traced_engine;
  std::unique_ptr<ForwardingTransport> traced_cluster;
  int scheduler_node = 0;
  int client_node = 0;
  std::vector<int> rank_nodes;
  std::unique_ptr<deisa::dts::Runtime> runtime;
  std::unique_ptr<deisa::mpix::Comm> comm;
};

struct Shared {
  Shared(exec::Executor& eng, const Workload& wl, SimLedger* l)
      : w(wl), ledger(l), stop_heartbeats(eng), sim_done(eng),
        analytics_done(eng) {}

  const Workload& w;
  SimLedger* ledger;  // traced runs only
  exec::Event stop_heartbeats;
  exec::Event sim_done;
  exec::Event analytics_done;
  int ranks_finished = 0;
  std::vector<std::unique_ptr<core::Bridge>> bridges;
  std::unique_ptr<core::Adaptor> adaptor;
  std::vector<std::unique_ptr<ml::ChunkProvider>> providers;
  std::map<std::string, arr::DArray> darrays;
  std::vector<deisa::dts::Key> result_keys;
  /// Pushed payloads of array 0, [rank][step] (real_data: the reference
  /// fit's input).
  std::vector<std::vector<deisa::dts::Data>> pushed;
};

/// Span helpers: no-ops on untraced runs.
void enter(Shared& st, Layer l) {
  if (st.ledger != nullptr) st.ledger->enter(l);
}
void leave(Shared& st, Layer l) {
  if (st.ledger != nullptr) st.ledger->leave(l);
}

deisa::dts::Data block_payload(const ScenarioParams& p,
                               const deisa::apps::Heat2d* solver,
                               const core::VirtualArray& va) {
  if (!p.real_data || solver == nullptr)
    return deisa::dts::Data::sized(va.block_bytes());
  arr::NDArray block(va.subsize);
  const auto& field = solver->field().flat();
  DEISA_CHECK(field.size() == block.flat().size(), "solver block size mismatch");
  std::copy(field.begin(), field.end(), block.flat().begin());
  const std::uint64_t b = block.bytes();
  return deisa::dts::Data::make<arr::NDArray>(std::move(block), b);
}

/// One simulation rank: closed loop of step, push, barrier.
exec::Co<void> rank_actor(World& w, Shared& st, int rank, PipelineRun& res) {
  const ScenarioParams& p = w.params;
  const std::vector<core::VirtualArray> vas = p.virtual_arrays();
  const auto [px, py] = p.proc_grid();
  core::Bridge& bridge = *st.bridges[static_cast<std::size_t>(rank)];
  const auto r = static_cast<std::size_t>(rank);

  std::unique_ptr<deisa::apps::Heat2d> solver;
  if (p.real_data) {
    deisa::apps::Heat2dConfig hc;
    hc.local_nx = p.local_edge();
    hc.local_ny = p.local_edge();
    hc.proc_x = px;
    hc.proc_y = py;
    hc.timesteps = p.timesteps;
    solver = std::make_unique<deisa::apps::Heat2d>(hc, rank);
    solver->initialize();
  }

  enter(st, Layer::kContract);
  if (rank == 0) {
    std::vector<core::VirtualArray> arrays = vas;
    co_await bridge.publish_arrays(std::move(arrays));
  }
  co_await bridge.wait_contract();
  leave(st, Layer::kContract);
  enter(st, Layer::kBarrier);
  co_await w.comm->barrier(rank);
  leave(st, Layer::kBarrier);

  const double step_cost = deisa::apps::Heat2d::step_cost(
      p.local_edge() * p.local_edge(), p.sim_cell_rate);
  for (int t = 0; t < p.timesteps; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    double m0 = w.executor().now();
    co_await w.executor().delay(step_cost);
    if (solver) {
      enter(st, Layer::kHeat2dStep);
      co_await solver->step(*w.comm);
      leave(st, Layer::kHeat2dStep);
    }
    res.sim_compute[r][ti] = w.executor().now() - m0;

    // Rank-characteristic skew, as in the harness.
    co_await w.executor().delay(2e-3 * static_cast<double>(rank + 1));
    m0 = w.executor().now();
    enter(st, Layer::kSendBlocks);
    for (std::size_t a = 0; a < vas.size(); ++a) {
      const arr::Index coord = core::block_coord(vas[a], {px, py}, rank, t);
      deisa::dts::Data payload = block_payload(p, solver.get(), vas[a]);
      if (a == 0 && p.real_data) st.pushed[r][ti] = payload;
      std::vector<std::pair<arr::Index, deisa::dts::Data>> blocks;
      blocks.emplace_back(coord, std::move(payload));
      (void)co_await bridge.send_blocks(vas[a], std::move(blocks));
    }
    leave(st, Layer::kSendBlocks);
    res.sim_io[r][ti] = w.executor().now() - m0;
    enter(st, Layer::kBarrier);
    co_await w.comm->barrier(rank);
    leave(st, Layer::kBarrier);
  }
  if (++st.ranks_finished == p.ranks) {
    st.sim_done.set();
    st.stop_heartbeats.set();
  }
}

/// The analytics client: signs the contract, then builds and submits the
/// whole multi-timestep IPCA graph ahead of the data, exactly as
/// InSituIncrementalPca::fit_ahead_of_time does.
exec::Co<void> adaptor_actor(World& w, Shared& st, PipelineRun& res) {
  const ScenarioParams& p = w.params;
  core::Adaptor& adaptor = *st.adaptor;
  enter(st, Layer::kContract);
  const auto arrays = co_await adaptor.get_deisa_arrays();
  const arr::Box box = contract_box(arrays.at(0), p.contract_fraction);
  for (const core::VirtualArray& a : arrays)
    adaptor.select(a.name, arr::Selection(box));
  st.darrays = co_await adaptor.validate_contract();
  leave(st, Layer::kContract);

  const double t0 = w.executor().now();
  std::vector<std::unique_ptr<ml::InSituIncrementalPca>> ipcas;
  std::vector<ml::IpcaFit> fits;
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    enter(st, Layer::kBuildGraph);
    const arr::DArray& da = st.darrays.at(arrays[i].name);
    st.providers.push_back(std::make_unique<SelectedArrayProvider>(da, box));
    ml::ChunkProvider& provider = *st.providers.back();
    const std::string name = i == 0 ? "ipca" : "ipca-a" + std::to_string(i);
    ipcas.push_back(std::make_unique<ml::InSituIncrementalPca>(
        adaptor.client(), ipca_options(p, name)));
    ml::InSituIncrementalPca& ipca = *ipcas.back();
    const std::int64_t steps = provider.grid().chunks_in(0);
    std::vector<deisa::dts::TaskSpec> tasks;
    for (std::int64_t t = 0; t < steps; ++t)
      ipca.build_step(provider, /*submission=*/0, t, tasks);
    ipca.build_outputs(tasks, steps);
    if (st.ledger != nullptr)
      for (deisa::dts::TaskSpec& spec : tasks)
        spec.fn = st.ledger->wrap(kernel_layer(spec.key), std::move(spec.fn));
    const ml::IpcaFit fit = ipca.fit_info(steps, 1);
    std::vector<deisa::dts::Key> wants;
    wants.push_back(fit.explained_variance_key);
    wants.push_back(fit.singular_values_key);
    leave(st, Layer::kBuildGraph);

    enter(st, Layer::kSubmit);
    co_await adaptor.client().submit(std::move(tasks), std::move(wants));
    leave(st, Layer::kSubmit);
    st.result_keys.push_back(fit.singular_values_key);
    fits.push_back(fit);
  }
  for (const ml::IpcaFit& fit : fits)
    co_await adaptor.client().wait_key(fit.singular_values_key);
  res.model_analytics_s = w.executor().now() - t0;
  if (p.real_data) {
    for (std::size_t i = 0; i < fits.size(); ++i) {
      const auto sv = co_await ipcas[i]->collect_vector(fits[i].singular_values_key);
      const auto ev =
          co_await ipcas[i]->collect_vector(fits[i].explained_variance_key);
      res.singular_values.insert(res.singular_values.end(), sv.begin(), sv.end());
      res.explained_variance.insert(res.explained_variance.end(), ev.begin(),
                                    ev.end());
    }
  }
  st.analytics_done.set();
}

exec::Co<void> orchestrator(World& w, Shared& st, PipelineRun& res) {
  co_await st.sim_done.wait();
  co_await st.analytics_done.wait();
  res.model_makespan_s = w.executor().now();
  co_await w.runtime->shutdown();
}

/// Spawn every actor in the harness's order (the sim event order depends
/// on it). On a traced run the rank strands are re-based to kRank.
void spawn_actors(World& w, Shared& st, PipelineRun& res, SimLedger* ledger) {
  const ScenarioParams& p = w.params;
  const core::Mode mode = mode_of(st.w.pipeline);
  const std::size_t first_rank_strand = ledger ? ledger->strand_count() : 0;
  std::vector<void*> rank_strands(static_cast<std::size_t>(p.ranks));
  for (auto& s : rank_strands) s = w.executor().new_strand();
  if (ledger != nullptr)
    ledger->relabel(first_rank_strand, ledger->strand_count(), Layer::kRank);
  for (int r = 0; r < p.ranks; ++r) {
    deisa::dts::Client& c =
        w.runtime->make_client(w.rank_nodes[static_cast<std::size_t>(r)]);
    exec::StrandScope scope(w.executor(), rank_strands[static_cast<std::size_t>(r)]);
    st.bridges.push_back(std::make_unique<core::Bridge>(c, mode, r, p.ranks));
  }
  st.adaptor = std::make_unique<core::Adaptor>(
      w.runtime->make_client(w.client_node), mode);
  for (int r = 0; r < p.ranks; ++r) {
    void* s = rank_strands[static_cast<std::size_t>(r)];
    w.executor().spawn_on(s, rank_actor(w, st, r, res));
    w.executor().spawn_on(
        s, st.bridges[static_cast<std::size_t>(r)]->run_heartbeats(
               st.stop_heartbeats));
  }
  w.executor().spawn_on(w.executor().new_strand(), adaptor_actor(w, st, res));
  w.executor().spawn_on(w.executor().new_strand(), orchestrator(w, st, res));
}

/// Start the runtime; on a traced run label the shard and worker strands
/// it creates (shards first, then workers: Runtime::start's order).
void start_runtime(World& w, SimLedger* ledger) {
  const std::size_t first = ledger ? ledger->strand_count() : 0;
  w.runtime->start();
  if (ledger != nullptr) {
    const std::size_t shards_end =
        first + static_cast<std::size_t>(w.runtime->num_shards());
    ledger->relabel(first, shards_end, Layer::kScheduler);
    ledger->relabel(shards_end, ledger->strand_count(), Layer::kWorker);
  }
}

void size_outputs(const ScenarioParams& p, PipelineRun& res) {
  const auto ranks = static_cast<std::size_t>(p.ranks);
  const auto steps = static_cast<std::size_t>(p.timesteps);
  res.sim_compute.assign(ranks, std::vector<double>(steps, 0.0));
  res.sim_io = res.sim_compute;
}

/// One built and started world: the world, its observability scope and
/// the actor state, declared in the harness's order.
struct StartedWorld {
  StartedWorld(const Workload& wl, std::uint64_t alloc_seed, bool with_registry,
          SimLedger* ledger, PipelineRun& res)
      : params(seeded(wl.params, alloc_seed)),
        w(params, ledger),
        scope(nullptr, with_registry ? &registry : nullptr,
              [&engine = w.engine] { return engine.now(); }),
        st(w.executor(), wl, ledger) {
    size_outputs(params, res);
    if (params.real_data)
      st.pushed.assign(static_cast<std::size_t>(params.ranks),
                       std::vector<deisa::dts::Data>(
                           static_cast<std::size_t>(params.timesteps)));
    start_runtime(w, ledger);
    spawn_actors(w, st, res, ledger);
  }

  static ScenarioParams seeded(ScenarioParams p, std::uint64_t alloc_seed) {
    p.alloc_seed = alloc_seed;
    return p;
  }

  const ScenarioParams params;
  World w;
  obs::MetricsRegistry registry;
  obs::ObservationScope scope;
  Shared st;
};

/// Serial ml::IncrementalPca over the slabs the ranks pushed. The Heat2D
/// field does not depend on the allocation seed, so one fit serves every
/// run of an invocation.
void reference_fit(const ScenarioParams& p, const Shared& st, Reference& ref) {
  const core::VirtualArray va = p.virtual_array();
  const auto [px, py] = p.proc_grid();
  const arr::ChunkGrid grid(va.shape, va.subsize);
  arr::Index slab_shape = va.shape;
  slab_shape[0] = 1;
  ml::IncrementalPca model(ipca_options(p, "reference").pca);
  const Clock::time_point t0 = Clock::now();
  for (int t = 0; t < p.timesteps; ++t) {
    arr::NDArray slab(slab_shape);
    for (int r = 0; r < p.ranks; ++r) {
      arr::Box box = grid.box_of(core::block_coord(va, {px, py}, r, t));
      box.lo[0] = 0;
      box.hi[0] = 1;
      slab.insert(box, st.pushed[static_cast<std::size_t>(r)]
                                [static_cast<std::size_t>(t)]
                                    .as<arr::NDArray>());
    }
    const arr::NDArray m2d = slab.reshape_2d({0, 2});
    model.partial_fit(deisa::linalg::Matrix::from_row_major(
        static_cast<std::size_t>(m2d.shape()[0]),
        static_cast<std::size_t>(m2d.shape()[1]), m2d.flat()));
  }
  ref.fit_s = seconds_since(t0);
  ref.singular_values = model.singular_values();
}

/// Largest relative deviation of `sv` from the reference (1 when the
/// shapes differ or a value is not finite).
double rel_err(const std::vector<double>& sv, const std::vector<double>& ref) {
  if (sv.size() != ref.size() || ref.empty()) return 1.0;
  double err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double e = std::abs(sv[i] - ref[i]) / std::max(std::abs(ref[i]), 1e-300);
    err = std::max(err, std::isfinite(e) ? e : 1.0);
  }
  return err;
}

void collect_counters(World& w, Shared& st, PipelineRun& res,
                      const obs::MetricsSnapshot& metrics) {
  const ScenarioParams& p = w.params;
  const deisa::dts::ShardedScheduler& sched = w.runtime->sharded();
  res.sched_msgs = sched.total_messages();
  using K = deisa::dts::SchedMsgKind;
  for (K kind : {K::kUpdateGraph, K::kTaskFinished, K::kUpdateData,
                 K::kCreateExternal, K::kWaitKey, K::kHeartbeatWorker,
                 K::kHeartbeatBridge, K::kVariableSet, K::kVariableGet,
                 K::kQueuePut, K::kQueueGet})
    res.sched_msgs_by_kind[deisa::dts::to_string(kind)] =
        sched.messages_received(kind);
  for (int s = 0; s < sched.num_shards(); ++s) {
    res.shard_msgs.push_back(sched.shard(s).total_messages());
    res.sched_wait_s += sched.shard(s).total_queueing_time();
  }
  res.remote_edges = sched.remote_edges();
  res.notify_msgs = sched.notify_msgs();
  res.release_acks = sched.release_acks();
  res.keys_released = sched.keys_released();
  res.sched_busy_s = sched.total_service_time();
  for (const auto& b : st.bridges) {
    res.blocks_sent += b->blocks_sent();
    res.blocks_filtered += b->blocks_filtered();
    res.blocks_repushed += b->blocks_repushed();
  }
  res.blocks_produced = static_cast<std::uint64_t>(p.ranks) *
                        static_cast<std::uint64_t>(p.timesteps) *
                        static_cast<std::uint64_t>(std::max(1, p.arrays));
  const exec::TransferStats ts = w.cluster.stats();
  res.net_msgs = ts.count;
  res.net_bytes = ts.bytes;
  for (int i = 0; i < w.runtime->num_workers(); ++i) {
    const deisa::dts::Worker& wk = w.runtime->worker(i);
    res.worker_tasks.push_back(wk.tasks_executed());
    res.worker_busy_s += wk.busy_time();
    res.worker_peak_bytes = std::max(res.worker_peak_bytes, wk.peak_memory_bytes());
  }
  if (const deisa::dts::ProxyDepot* depot = w.runtime->depot())
    res.depot_peak_bytes = depot->peak_bytes();
  res.bytes_moved = metrics.counter(obs::kBytesMoved);
  res.bytes_referenced = metrics.counter(obs::kBytesReferenced);
  res.sim_events = w.engine.events_processed();
}

/// Output checks of one run; failures are recorded, never thrown.
void check_outputs(World& w, Shared& st, PipelineRun& res, Reference* ref) {
  const ScenarioParams& p = w.params;
  auto fail = [&res](std::string why) { res.failures.push_back(std::move(why)); };
  if (res.blocks_sent + res.blocks_filtered != res.blocks_produced)
    fail("blocks_sent + blocks_filtered != ranks x steps x arrays");
  const core::VirtualArray va = p.virtual_array();
  const int px = p.proc_grid().first;
  const arr::Box box = contract_box(va, p.contract_fraction);
  const std::uint64_t rows_kept =
      static_cast<std::uint64_t>(box.hi[2] / va.subsize[2]);
  const std::uint64_t selected = static_cast<std::uint64_t>(px) * rows_kept *
                                 static_cast<std::uint64_t>(p.timesteps) *
                                 static_cast<std::uint64_t>(std::max(1, p.arrays));
  if (res.blocks_sent != selected)
    fail("blocks_sent != contract-selected block count");
  const deisa::dts::ShardedScheduler& sched = w.runtime->sharded();
  if (st.result_keys.empty()) fail("no analytics result key was submitted");
  for (const deisa::dts::Key& key : st.result_keys) {
    const deisa::dts::Scheduler& owner = sched.shard(sched.mapper().shard_of(key));
    if (!owner.knows(key) ||
        owner.state_of(key) != deisa::dts::TaskState::kMemory)
      fail("analytics result " + key + " did not reach memory");
  }
  if (p.real_data) {
    DEISA_CHECK(ref != nullptr, "real-data runs need a reference");
    if (ref->singular_values.empty()) {
      reference_fit(p, st, *ref);
      res.reference_fit_s = ref->fit_s;
    }
    res.sv_rel_err = rel_err(res.singular_values, ref->singular_values);
    if (!(res.sv_rel_err <= 1e-9))
      fail("singular values diverge from the serial reference");
  }
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

PipelineRun run_pipeline(const Workload& wl, std::uint64_t alloc_seed,
                         const RunOptions& opts) {
  PipelineRun res;
  std::unique_ptr<SimLedger> ledger =
      opts.traced ? std::make_unique<SimLedger>() : nullptr;

  reset_peak_rss();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  std::optional<StartedWorld> s;
  bool drained = false;
  try {
    s.emplace(wl, alloc_seed, opts.registry, ledger.get(), res);
    res.setup_s = seconds_since(t0);
    const Clock::time_point r0 = Clock::now();
    if (ledger) ledger->start();
    drained = s->w.executor().run_until(36000.0);
    if (ledger) ledger->stop();
    res.run_s = seconds_since(r0);
  } catch (const std::exception& e) {
    res.failures.push_back(std::string("run threw: ") + e.what());
    return res;
  }
  res.cpu_s = process_cpu_s() - cpu0;
  res.peak_rss_mib = peak_rss_mib();
  World& w = s->w;
  Shared& st = s->st;
  const Clock::time_point c0 = Clock::now();
  if (!(drained && st.analytics_done.is_set() && st.sim_done.is_set())) {
    res.failures.push_back("run did not complete within the simulated-time cap");
    return res;
  }
  collect_counters(w, st, res, s->registry.snapshot());
  try {
    check_outputs(w, st, res, opts.reference);
  } catch (const std::exception& e) {
    res.failures.push_back(std::string("check threw: ") + e.what());
  }
  res.check_s = seconds_since(c0) - res.reference_fit_s;

  if (ledger) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      res.calls[i] = ledger->calls(static_cast<Layer>(i));
      res.self_s[i] = ledger->self_s(static_cast<Layer>(i));
    }
    res.ledger_mismatches = ledger->mismatches();
  }
  return res;
}

double setup_only(const Workload& wl, std::uint64_t alloc_seed) {
  PipelineRun res;
  const Clock::time_point t0 = Clock::now();
  const StartedWorld s(wl, alloc_seed, true, nullptr, res);
  return seconds_since(t0);
}

}  // namespace perfbench
