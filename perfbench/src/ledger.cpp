#include "ledger.hpp"

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kUnattributed: return "sim.unattributed";
    case Layer::kScheduler: return "dts.scheduler";
    case Layer::kWorker: return "dts.worker";
    case Layer::kRank: return "bench.rank";
    case Layer::kClient: return "bench.client";
    case Layer::kHeat2dStep: return "apps.heat2d.step";
    case Layer::kSlabAssemble: return "array.slab_assemble";
    case Layer::kPartialFit: return "ml.partial_fit";
    case Layer::kExtract: return "ml.extract";
    case Layer::kSendBlocks: return "core.bridge.send_blocks";
    case Layer::kContract: return "core.contract";
    case Layer::kBuildGraph: return "ml.build_graph";
    case Layer::kSubmit: return "dts.client.submit";
    case Layer::kBarrier: return "mpix.barrier";
    case Layer::kCount: break;
  }
  return "?";
}

// ---- SimLedger ----

SimLedger::SimLedger() {
  strands_.push_back(Strand{{Layer::kUnattributed}});
  current_ = root();
}

Strand* SimLedger::make_strand(Layer base) {
  strands_.push_back(Strand{{base}});
  return &strands_.back();
}

void SimLedger::relabel(std::size_t first, std::size_t last, Layer base) {
  for (std::size_t i = first; i < last && i < strands_.size(); ++i)
    strands_[i].stack.front() = base;
}

void SimLedger::start() {
  mark_ = Clock::now();
  current_ = root();
  active_ = true;
}

void SimLedger::stop() {
  charge();
  active_ = false;
}

void SimLedger::charge() {
  if (!active_) return;
  const Clock::time_point now = Clock::now();
  self_[static_cast<std::size_t>(current_->stack.back())] +=
      std::chrono::duration<double>(now - mark_).count();
  mark_ = now;
}

Strand* SimLedger::switch_to(Strand* s) {
  if (s == nullptr) s = root();
  Strand* prev = current_;
  if (s != prev) {
    charge();
    current_ = s;
  }
  return prev;
}

void SimLedger::enter(Layer l) {
  charge();
  current_->stack.push_back(l);
  ++calls_[static_cast<std::size_t>(l)];
}

void SimLedger::leave(Layer l) {
  charge();
  if (current_->stack.size() > 1 && current_->stack.back() == l) {
    current_->stack.pop_back();
  } else {
    ++mismatches_;
  }
}

dts::TaskFn SimLedger::wrap(Layer l, dts::TaskFn fn) {
  if (!fn) return fn;
  return [this, l, fn = std::move(fn)](const std::vector<dts::Data>& in) {
    enter(l);
    try {
      dts::Data out = fn(in);
      leave(l);
      return out;
    } catch (...) {
      leave(l);
      throw;
    }
  };
}

// ---- TracingExecutor ----

TracingExecutor::TracingExecutor(deisa::sim::Engine& inner, SimLedger& ledger)
    : inner_(inner), ledger_(ledger) {}

TracingExecutor::~TracingExecutor() {
  // Same teardown as sim::Engine: frames still suspended are destroyed;
  // the callbacks left in the engine queue only hold their handles.
  for (void* addr : roots_)
    std::coroutine_handle<>::from_address(addr).destroy();
  roots_.clear();
}

void TracingExecutor::post(exec::ResumeToken token, exec::Time t) {
  inner_.schedule_callback(
      [this, h = token.handle, strand = static_cast<Strand*>(token.strand)] {
        ledger_.switch_to(strand);
        h.resume();
        ledger_.switch_to(nullptr);
      },
      t);
}

void TracingExecutor::rethrow_first_error() {
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

void TracingExecutor::run() {
  inner_.run();
  rethrow_first_error();
}

bool TracingExecutor::run_until(exec::Time t_end) {
  const bool drained = inner_.run_until(t_end);
  rethrow_first_error();
  return drained;
}

// ---- ForwardingTransport ----

exec::Co<void> ForwardingTransport::transfer(int src, int dst,
                                             std::uint64_t bytes) {
  Strand* caller = ledger_.current();
  co_await inner_.transfer(src, dst, bytes);
  ledger_.switch_to(caller);
}

exec::Co<exec::SendResult> ForwardingTransport::send_control(
    int src, int dst, std::uint64_t bytes, exec::Delivery delivery) {
  Strand* caller = ledger_.current();
  exec::SendResult r = co_await inner_.send_control(src, dst, bytes, delivery);
  ledger_.switch_to(caller);
  co_return r;
}

}  // namespace perfbench
