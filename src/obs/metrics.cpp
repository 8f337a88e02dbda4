#include "deisa/obs/metrics.hpp"

#include "deisa/obs/trace.hpp"

namespace deisa::obs {

std::atomic<MetricsRegistry*> MetricsRegistry::current_{nullptr};

namespace {

/// Head of the intrusive live list and its mutex. Never destroyed: a
/// block may unlink during static destruction.
struct LiveList {
  std::mutex mu;
  LiveCounters* head = nullptr;
};

LiveList& live_list() {
  static LiveList* list = new LiveList;
  return *list;
}

}  // namespace

LiveCounters::LiveCounters(const Counter* counters, std::size_t size,
                           NameFn name)
    : counters_(counters), size_(size), name_(name) {
  LiveList& list = live_list();
  std::lock_guard lk(list.mu);
  next_ = list.head;
  if (next_ != nullptr) next_->prev_ = this;
  list.head = this;
}

LiveCounters::~LiveCounters() {
  LiveList& list = live_list();
  std::lock_guard lk(list.mu);
  (prev_ != nullptr ? prev_->next_ : list.head) = next_;
  if (next_ != nullptr) next_->prev_ = prev_;
}

void LiveCounters::collect(std::map<std::string, std::uint64_t>& out) {
  LiveList& list = live_list();
  std::lock_guard lk(list.mu);
  for (const LiveCounters* b = list.head; b != nullptr; b = b->next_)
    for (std::size_t i = 0; i < b->size_; ++i)
      if (const std::uint64_t v = b->counters_[i].value(); v != 0)
        out[b->name_(i)] += v;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  LiveCounters::collect(snap.counters);
  // The recorder keeps its own overflow count; report the installed one.
  if (const Recorder* r = Recorder::current(); r != nullptr && r->dropped() > 0)
    snap.counters["trace.dropped_events"] += r->dropped();
  std::lock_guard lk(mu_);
  for (const auto& [name, g] : gauges_) snap.gauges.emplace(name, g.value());
  for (const auto& [name, h] : histograms_) {
    const util::RunningStats rs = h.stats();
    HistogramSummary s;
    s.count = rs.count();
    s.mean = rs.mean();
    s.stddev = rs.stddev();
    s.min = rs.min();
    s.max = rs.max();
    s.p50 = h.percentile(0.50);
    s.p95 = h.percentile(0.95);
    s.p99 = h.percentile(0.99);
    snap.histograms.emplace(name, s);
  }
  return snap;
}

}  // namespace deisa::obs
