// Metrics: per-actor counter blocks plus a registry of named gauges and
// histograms, read back together by MetricsRegistry::snapshot() (the
// figure benches and fig_msgcount's message formulas read the result).
//
// Blocks: every counting actor (scheduler shard, worker, client, bridge,
// adaptor, transport, PFS, fault injector) owns one CounterBlock<E>, an
// array of relaxed atomics indexed by its counter enum E; a total
// metric_name(E) switch names each entry. Counting is one atomic add at
// a fixed index (no name string, no lock, no "metrics on?" check), and
// the actor's accessors read the same block: each fact is counted once.
//
// Live list and snapshot: a block links itself into a process-wide list
// on construction and unlinks on destruction, under one mutex (cold).
// snapshot() pulls every live block's non-zero entries, summed by name
// (four shards' "scheduler.messages.total" report one total). So blocks
// count with or without a registry installed, the registry may be
// installed after the world is built, and a snapshot sees the actors
// alive when it is taken: take it before the world is torn down.
//
// Gauges and histograms stay registry-owned and named, reached through
// MetricsRegistry::current() (a null check when metrics are off).
// Histograms keep util::RunningStats moments plus a bounded sample
// buffer for percentiles. Thread-safe: counters and gauges are atomics,
// histograms take their own mutex, the registry serializes name lookups
// (std::map keeps references stable), and the live list has its mutex.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "deisa/util/stats.hpp"

namespace deisa::obs {

class Counter {
public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Links one counter array into the live list snapshot() reads. A
/// CounterBlock declares it after its array, so it links once the
/// counters exist and unlinks before they die.
class LiveCounters {
public:
  /// Snapshot name of entry `index` (called only while snapshotting).
  using NameFn = std::string (*)(std::size_t index);

  LiveCounters(const Counter* counters, std::size_t size, NameFn name);
  ~LiveCounters();
  LiveCounters(const LiveCounters&) = delete;
  LiveCounters& operator=(const LiveCounters&) = delete;

  /// Add every live array's non-zero entries into `out`, by name.
  static void collect(std::map<std::string, std::uint64_t>& out);

private:
  const Counter* counters_;
  std::size_t size_;
  NameFn name_;
  LiveCounters* prev_ = nullptr;  // intrusive list links
  LiveCounters* next_ = nullptr;
};

/// One actor's counters: a Counter per value of the enum E, which ends
/// with a kCount sentinel and may reserve index ranges (the scheduler's
/// per-kind arrivals). metric_name(E) is found by argument-dependent
/// lookup, so it is declared next to E.
template <class E>
class CounterBlock {
public:
  void add(E e, std::uint64_t n = 1) { counters_[index(e)].add(n); }
  std::uint64_t operator[](E e) const { return counters_[index(e)].value(); }

private:
  static constexpr std::size_t kSize = static_cast<std::size_t>(E::kCount);
  static std::size_t index(E e) { return static_cast<std::size_t>(e); }
  static std::string name(std::size_t i) {
    return metric_name(static_cast<E>(i));
  }

  std::array<Counter, kSize> counters_{};
  LiveCounters live_{counters_.data(), kSize, &name};
};

class Gauge {
public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

class Histogram {
public:
  static constexpr std::size_t kDefaultMaxSamples = 1u << 16;

  explicit Histogram(std::size_t max_samples = kDefaultMaxSamples)
      : max_samples_(max_samples) {}

  void observe(double x) {
    std::lock_guard lk(mu_);
    stats_.add(x);
    if (samples_.size() < max_samples_) samples_.push_back(x);
  }

  /// Copy of the streaming moments (consistent under concurrent observe).
  util::RunningStats stats() const {
    std::lock_guard lk(mu_);
    return stats_;
  }
  std::size_t count() const {
    std::lock_guard lk(mu_);
    return stats_.count();
  }
  /// Percentile over the retained samples (all of them until the cap).
  double percentile(double q) const {
    std::lock_guard lk(mu_);
    return util::percentile(samples_, q);
  }

private:
  mutable std::mutex mu_;
  std::size_t max_samples_;
  util::RunningStats stats_;
  std::vector<double> samples_;
};

struct HistogramSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Immutable copy of a registry at one point in time; cheap to carry in
/// RunResult and to compare across runs.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// Counter value, 0 when the counter was never touched.
  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double gauge(const std::string& name) const {
    const auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
  }
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class MetricsRegistry {
public:
  /// The process-wide registry gauge and histogram sites write to;
  /// nullptr (the default) disables them. Counter blocks count regardless.
  static MetricsRegistry* current() {
    return current_.load(std::memory_order_acquire);
  }
  static void install(MetricsRegistry* registry) {
    current_.store(registry, std::memory_order_release);
  }

  Gauge& gauge(const std::string& name) {
    std::lock_guard lk(mu_);
    return gauges_[name];
  }
  Histogram& histogram(const std::string& name) {
    std::lock_guard lk(mu_);
    return histograms_[name];
  }

  /// Every live counter block's non-zero entries (summed by name), the
  /// installed trace recorder's overflow as trace.dropped_events, and
  /// this registry's gauges and histograms.
  MetricsSnapshot snapshot() const;

private:
  /// Guards the name->instrument maps (not the instruments themselves,
  /// which synchronize their own mutation).
  mutable std::mutex mu_;
  // std::map: deterministic dump order, stable references on insert.
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;

  static std::atomic<MetricsRegistry*> current_;
};

/// The installed registry, or nullptr when gauges/histograms are off.
inline MetricsRegistry* metrics() { return MetricsRegistry::current(); }

inline void gauge_set(const std::string& name, double value) {
  if (MetricsRegistry* m = MetricsRegistry::current()) m->gauge(name).set(value);
}

inline void observe(const std::string& name, double value) {
  if (MetricsRegistry* m = MetricsRegistry::current())
    m->histogram(name).observe(value);
}

}  // namespace deisa::obs
