// Parallel file system model (Lustre-like): a shared storage target with
// a bounded number of concurrent I/O streams, each at a bounded
// bandwidth. Aggregate job-visible bandwidth saturates quickly, so
// per-process bandwidth halves as the writer count doubles — the
// mechanism behind the post-hoc write collapse in the paper's Figure 3a.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "deisa/exec/primitives.hpp"
#include "deisa/obs/metrics.hpp"
#include "deisa/util/rng.hpp"

namespace deisa::io {

struct PfsParams {
  /// Concurrent I/O streams the job can drive (OST/stripe limit).
  int streams = 8;
  /// Bandwidth of one stream in bytes/s (≈ 52 MiB/s of job-visible HDF5
  /// throughput; calibrated so 4 writers of 128 MiB take ≈ 2.4 s and 64
  /// writers queue up to ≈ 17-20 s, as in Figures 2a/3a).
  double per_stream_bandwidth = 5.5e7;
  /// Per-operation metadata latency (open/seek/close RPCs).
  double metadata_latency = 2e-3;
  /// One-time cost of creating a file (allocation, layout) — the paper
  /// observed a visibly longer first iteration due to file creation.
  double file_create_cost = 0.8;
  /// Lognormal jitter sigma on op durations (0 = deterministic).
  double jitter_sigma = 0.2;
  std::uint64_t seed = 0x9f5;
};

/// The PFS's counters (its obs::CounterBlock).
enum class PfsCounter : std::uint8_t {
  kOps,  // operations started
  kBytesWritten,
  kBytesRead,
  kCount,
};

inline const char* metric_name(PfsCounter c) {
  using enum PfsCounter;
  switch (c) {
    case kOps: return "pfs.ops";
    case kBytesWritten: return "pfs.bytes_written";
    case kBytesRead: return "pfs.bytes_read";
    case kCount: break;
  }
  return "?";
}

class Pfs {
public:
  Pfs(exec::Executor& ex, PfsParams params);

  const PfsParams& params() const { return params_; }

  /// Write `bytes` to `path`. The first write to a path pays the file
  /// creation cost.
  exec::Co<void> write(const std::string& path, std::uint64_t bytes);
  /// Read `bytes` from `path`.
  exec::Co<void> read(const std::string& path, std::uint64_t bytes);

  std::uint64_t bytes_written() const {
    return counters_[PfsCounter::kBytesWritten];
  }
  std::uint64_t bytes_read() const { return counters_[PfsCounter::kBytesRead]; }
  std::uint64_t ops() const { return counters_[PfsCounter::kOps]; }

private:
  exec::Co<void> io_op(const char* op, std::uint64_t bytes,
                      double extra_latency);
  double jitter();

  exec::Executor* engine_;
  PfsParams params_;
  exec::Semaphore streams_;
  // Guards created_ and the jitter rng (writers may sit on different
  // strands under the threaded substrate).
  std::mutex mu_;
  std::set<std::string> created_;
  util::Rng rng_;
  obs::CounterBlock<PfsCounter> counters_;
};

}  // namespace deisa::io
