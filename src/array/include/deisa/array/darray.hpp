// Distributed chunked array over the task system — the C++ analogue of a
// dask.array backed (optionally) by external tasks.
#pragma once

#include <string>

#include "deisa/array/chunks.hpp"
#include "deisa/dts/client.hpp"

namespace deisa::array {

/// Default key prefix of the deisa naming scheme (§2.4.1).
inline constexpr const char* kDeisaPrefix = "deisa-";

/// A chunked distributed array: chunk grid + one task key per chunk.
/// DArray itself is a lightweight descriptor; data lives on workers.
class DArray {
public:
  DArray() = default;

  const std::string& name() const { return name_; }
  const ChunkGrid& grid() const { return grid_; }
  const Index& shape() const { return grid_.shape(); }
  dts::Client& client() const { return *client_; }

  /// Key of the chunk at grid coordinate c.
  const dts::Key& key_of(const Index& c) const;
  /// All chunk keys in row-major grid order.
  const std::vector<dts::Key>& keys() const { return keys_; }
  /// Worker that holds / will hold the chunk at c (as assigned at
  /// creation; -1 when the scheduler decides).
  int worker_of(const Index& c) const;

  /// Build an array whose chunks are **external tasks**: one per chunk,
  /// named by the deisa scheme and pinned round-robin onto workers. The
  /// whole multi-timestep analytics graph can then be submitted before
  /// any simulation data exists (paper §2.2/§2.4.2).
  static exec::Co<DArray> from_external(dts::Client& client, std::string name,
                                       Index shape, Index chunk_shape);

  /// Descriptor-only variant: same keys/placement, but does NOT contact
  /// the scheduler (used by bridges, which must agree on the naming and
  /// placement without creating tasks).
  static DArray descriptor(dts::Client& client, std::string name, Index shape,
                           Index chunk_shape);

  /// Gather the chunks overlapping `sel` and assemble the sub-array
  /// covering sel.box (functional mode only).
  exec::Co<NDArray> gather_box(const Selection& sel) const;

  /// Chunks overlapping a selection (contract support).
  std::vector<Index> chunks_in(const Selection& sel) const {
    return grid_.chunks_overlapping(sel.box);
  }

private:
  DArray(dts::Client& client, std::string name, ChunkGrid grid);
  void build_keys(const std::string& prefix);

  dts::Client* client_ = nullptr;
  std::string name_;
  ChunkGrid grid_;
  std::vector<dts::Key> keys_;     // row-major grid order
  std::vector<int> workers_;       // placement per chunk (-1 = scheduler)
};

/// Round-robin placement of chunk `linear` over `num_workers` workers —
/// the "preselected worker" rule shared by adaptor and bridges.
int preselected_worker(std::int64_t linear, int num_workers);

}  // namespace deisa::array
