// Real-clock instrumentation of the traced benchmark run.
//
// The benchmark measures layers from outside the program:
//
//   * SimLedger — one span stack per strand. The benchmark's own actor
//     code enters a span around each call into a layer (bridge push,
//     barrier, solver step, graph build, submit, contract) and around
//     every IPCA task function; each interval of the run phase is charged
//     to the top of the running strand's stack.
//   * TracingExecutor — an exec::Executor that forwards to a sim::Engine
//     but turns every coroutine resume into a schedule_callback that runs
//     the resume with the real-clock ledger switched to the resumed
//     strand. A callback takes the same (time, seq) slot a handle would,
//     so the event order, and with it every modeled output, is unchanged.
//
// sim::Engine is a final class and net::Cluster keeps a sim::Engine&, so
// the cluster's own timer and NIC-slot resumes still go straight to the
// engine. ForwardingTransport hands the cluster's coroutines out and,
// when one completes, switches the ledger back to the strand that called
// it; the short stretch of cluster code that runs before that hand-back
// is what the ledger reports as sim.unattributed.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "deisa/dts/task.hpp"
#include "deisa/exec/executor.hpp"
#include "deisa/exec/transport.hpp"
#include "deisa/sim/engine.hpp"

namespace perfbench {

namespace dts = deisa::dts;
namespace exec = deisa::exec;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Layers a span or a strand's base time is charged to.
enum class Layer : std::uint8_t {
  kUnattributed,  // engine loop + cluster-internal resumes
  kScheduler,     // scheduler shard strands
  kWorker,        // worker strands (outside task functions)
  kRank,          // rank strands outside spans: rank loop, bridge
                  // heartbeat and re-push listeners
  kClient,        // adaptor and orchestrator strands outside spans
  kHeat2dStep,
  kSlabAssemble,
  kPartialFit,
  kExtract,
  kSendBlocks,
  kContract,
  kBuildGraph,
  kSubmit,
  kBarrier,
  kCount
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric stem of a layer, e.g. "dts.scheduler" or "ml.partial_fit".
const char* layer_name(Layer l);

/// One serialization domain of the traced run. Its base layer sits at the
/// bottom of the span stack.
struct Strand {
  std::vector<Layer> stack;
};

/// Self-time accounting on the real clock. Every interval of the run
/// phase is charged to the top of the current strand's span stack, so
/// the self times of all layers add up to the run phase.
class SimLedger {
public:
  SimLedger();
  SimLedger(const SimLedger&) = delete;
  SimLedger& operator=(const SimLedger&) = delete;

  Strand* root() { return &strands_.front(); }
  Strand* make_strand(Layer base);
  std::size_t strand_count() const { return strands_.size(); }
  /// Re-base the strands created at positions [first, last).
  void relabel(std::size_t first, std::size_t last, Layer base);

  /// Start / stop charging time (the run phase).
  void start();
  void stop();

  Strand* current() const { return current_; }
  /// Make `s` current (nullptr = root); returns the previous strand.
  Strand* switch_to(Strand* s);
  void enter(Layer l);
  void leave(Layer l);
  /// Wrap a task function so its execution is a span of layer `l`.
  dts::TaskFn wrap(Layer l, dts::TaskFn fn);

  double self_s(Layer l) const { return self_[static_cast<std::size_t>(l)]; }
  /// Spans of `l` entered.
  std::uint64_t calls(Layer l) const { return calls_[static_cast<std::size_t>(l)]; }
  /// Spans closed on a strand whose top was a different layer (0 when
  /// the benchmark's enter/leave calls are balanced).
  std::uint64_t mismatches() const { return mismatches_; }

private:
  void charge();

  std::deque<Strand> strands_;
  Strand* current_ = nullptr;
  bool active_ = false;
  Clock::time_point mark_{};
  std::array<double, kLayerCount> self_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
  std::uint64_t mismatches_ = 0;
};

/// exec::Executor over a sim::Engine whose resumes are charged to their
/// strand in a SimLedger (see the file comment).
class TracingExecutor final : public exec::Executor {
public:
  TracingExecutor(deisa::sim::Engine& inner, SimLedger& ledger);
  ~TracingExecutor() override;

  exec::Time now() const override { return inner_.now(); }
  void post(exec::ResumeToken token, exec::Time t) override;
  exec::ResumeToken capture(std::coroutine_handle<> h) override {
    return exec::ResumeToken{h, ledger_.current()};
  }
  void* new_strand() override { return ledger_.make_strand(Layer::kClient); }
  void* current_strand() const override { return ledger_.current(); }
  void* exchange_current_strand(void* strand) override {
    return ledger_.switch_to(static_cast<Strand*>(strand));
  }
  bool concurrent() const override { return false; }

  void run() override;
  bool run_until(exec::Time t_end) override;
  void stop() override { inner_.stop(); }

protected:
  void register_root(std::coroutine_handle<> h) override {
    roots_.insert(h.address());
  }
  void unregister_root(std::coroutine_handle<> h) override {
    roots_.erase(h.address());
  }
  void report_error(std::exception_ptr e) override {
    if (!first_error_) first_error_ = e;
    inner_.stop();
  }

private:
  void rethrow_first_error();

  deisa::sim::Engine& inner_;
  SimLedger& ledger_;
  std::unordered_set<void*> roots_;
  std::exception_ptr first_error_;
};

/// exec::Transport that hands out the wrapped transport's coroutines and
/// executes them on `executor`'s ledger strand: when a wrapped transfer
/// or control send completes, the ledger switches back to the strand
/// that started it.
class ForwardingTransport final : public exec::Transport {
public:
  ForwardingTransport(exec::Transport& inner, TracingExecutor& executor,
                      SimLedger& ledger)
      : inner_(inner), executor_(executor), ledger_(ledger) {}

  exec::Executor& executor() override { return executor_; }
  exec::Co<void> transfer(int src, int dst, std::uint64_t bytes) override;
  exec::Co<exec::SendResult> send_control(int src, int dst,
                                          std::uint64_t bytes,
                                          exec::Delivery delivery) override;
  void set_fault_hook(exec::FaultHook hook) override {
    inner_.set_fault_hook(std::move(hook));
  }
  bool has_fault_hook() const override { return inner_.has_fault_hook(); }
  exec::TransferStats stats() const override { return inner_.stats(); }

private:
  exec::Transport& inner_;
  TracingExecutor& executor_;
  SimLedger& ledger_;
};

}  // namespace perfbench
