#include "deisa/array/darray.hpp"

namespace deisa::array {

int preselected_worker(std::int64_t linear, int num_workers) {
  DEISA_CHECK(num_workers > 0, "no workers available for placement");
  return static_cast<int>(linear % num_workers);
}

DArray::DArray(dts::Client& client, std::string name, ChunkGrid grid)
    : client_(&client), name_(std::move(name)), grid_(std::move(grid)) {}

void DArray::build_keys(const std::string& prefix) {
  const std::int64_t n = grid_.num_chunks();
  keys_.reserve(static_cast<std::size_t>(n));
  workers_.reserve(static_cast<std::size_t>(n));
  // One stem render for the whole array; per chunk only the coordinate
  // digits are appended and the finished key copied into place.
  ChunkKeyBuilder builder(prefix, name_);
  const int num_workers = client_->num_workers();
  for (std::int64_t i = 0; i < n; ++i) {
    keys_.push_back(builder.render(grid_.coord_of(i)));
    workers_.push_back(preselected_worker(i, num_workers));
  }
}

const dts::Key& DArray::key_of(const Index& c) const {
  return keys_[static_cast<std::size_t>(grid_.linear_of(c))];
}

int DArray::worker_of(const Index& c) const {
  return workers_[static_cast<std::size_t>(grid_.linear_of(c))];
}

DArray DArray::descriptor(dts::Client& client, std::string name, Index shape,
                          Index chunk_shape) {
  DArray a(client, std::move(name),
           ChunkGrid(std::move(shape), std::move(chunk_shape)));
  a.build_keys(kDeisaPrefix);
  return a;
}

exec::Co<DArray> DArray::from_external(dts::Client& client, std::string name,
                                      Index shape, Index chunk_shape) {
  DArray a = descriptor(client, std::move(name), std::move(shape),
                        std::move(chunk_shape));
  co_await client.external_futures(a.keys_, a.workers_);
  co_return a;
}

exec::Co<NDArray> DArray::gather_box(const Selection& sel) const {
  Index out_shape(sel.box.ndim());
  for (std::size_t d = 0; d < out_shape.size(); ++d)
    out_shape[d] = sel.box.extent(d);
  NDArray out(out_shape);
  const std::vector<Index> coords = grid_.chunks_overlapping(sel.box);
  for (const Index& c : coords) {
    const dts::Data d = co_await client_->gather(key_of(c));
    const NDArray& chunk = d.as<NDArray>();
    const Box cbox = grid_.box_of(c);
    const Box overlap = cbox.intersect(sel.box);
    Box src_local;
    Box dst_local;
    src_local.lo.resize(overlap.ndim());
    src_local.hi.resize(overlap.ndim());
    dst_local.lo.resize(overlap.ndim());
    dst_local.hi.resize(overlap.ndim());
    for (std::size_t d2 = 0; d2 < overlap.ndim(); ++d2) {
      src_local.lo[d2] = overlap.lo[d2] - cbox.lo[d2];
      src_local.hi[d2] = overlap.hi[d2] - cbox.lo[d2];
      dst_local.lo[d2] = overlap.lo[d2] - sel.box.lo[d2];
      dst_local.hi[d2] = overlap.hi[d2] - sel.box.lo[d2];
    }
    out.insert(dst_local, chunk.extract(src_local));
  }
  co_return out;
}

}  // namespace deisa::array
