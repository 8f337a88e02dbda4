// Tests for NDArray, chunk grids, the naming scheme, selections, and the
// distributed DArray (external chunks, gather).
#include <gtest/gtest.h>

#include <memory>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/array/darray.hpp"
#include "deisa/dts/runtime.hpp"

namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

arr::Index idx(std::initializer_list<std::int64_t> v) { return arr::Index(v); }

// Variadic twin of idx() for use inside coroutines (GCC 12 miscompiles
// initializer_list temporaries in coroutine bodies).
template <typename... T>
arr::Index ix(T... v) {
  arr::Index i;
  (i.push_back(static_cast<std::int64_t>(v)), ...);
  return i;
}

TEST(NDArray, IndexingRowMajor) {
  arr::NDArray a(idx({2, 3}));
  a.at(idx({0, 0})) = 1;
  a.at(idx({1, 2})) = 6;
  EXPECT_DOUBLE_EQ(a.flat()[0], 1);
  EXPECT_DOUBLE_EQ(a.flat()[5], 6);
  EXPECT_EQ(a.size(), 6);
  EXPECT_EQ(a.bytes(), 48u);
}

TEST(NDArray, OutOfRangeThrows) {
  arr::NDArray a(idx({2, 2}));
  EXPECT_THROW(a.at(idx({2, 0})), deisa::util::Error);
  EXPECT_THROW(a.at(idx({0, 0, 0})), deisa::util::Error);
}

TEST(NDArray, ExtractInsertRoundTrip) {
  arr::NDArray a(idx({4, 4}));
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 4; ++j) a.at(idx({i, j})) = 10.0 * i + j;
  const arr::Box box(idx({1, 2}), idx({3, 4}));
  const arr::NDArray sub = a.extract(box);
  EXPECT_EQ(sub.shape(), idx({2, 2}));
  EXPECT_DOUBLE_EQ(sub.at(idx({0, 0})), 12);
  EXPECT_DOUBLE_EQ(sub.at(idx({1, 1})), 23);
  arr::NDArray b(idx({4, 4}));
  b.insert(box, sub);
  EXPECT_DOUBLE_EQ(b.at(idx({1, 2})), 12);
  EXPECT_DOUBLE_EQ(b.at(idx({2, 3})), 23);
  EXPECT_DOUBLE_EQ(b.at(idx({0, 0})), 0);
}

TEST(NDArray, Reshape2dStacksDims) {
  // 3D (2,2,3): rows = dim0 (t), cols = (dim1, dim2) flattened.
  arr::NDArray a(idx({2, 2, 3}));
  double v = 0;
  for (std::int64_t t = 0; t < 2; ++t)
    for (std::int64_t x = 0; x < 2; ++x)
      for (std::int64_t y = 0; y < 3; ++y) a.at(idx({t, x, y})) = v++;
  const arr::NDArray m = a.reshape_2d({0});
  EXPECT_EQ(m.shape(), idx({2, 6}));
  EXPECT_DOUBLE_EQ(m.at(idx({0, 0})), 0);
  EXPECT_DOUBLE_EQ(m.at(idx({1, 5})), 11);
  // rows = (t, x), cols = y.
  const arr::NDArray m2 = a.reshape_2d({0, 1});
  EXPECT_EQ(m2.shape(), idx({4, 3}));
  EXPECT_DOUBLE_EQ(m2.at(idx({3, 2})), 11);
}

// ---- property tests: bulk kernels vs an element-wise oracle ----
//
// extract/insert/reshape_2d are contiguous-run strided copies; the oracle
// below recomputes each element independently through bounds-checked
// at(), so any stride/offset/coalescing bug in the fast path shows up as
// a value mismatch. Shapes cross ranks 0..4 and include zero extents,
// empty boxes, and full-array boxes.

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

template <typename Fn>
void oracle_for_each(const arr::Box& box, Fn&& fn) {
  if (box.volume() == 0) return;
  arr::Index i = box.lo;
  const std::size_t nd = i.size();
  while (true) {
    fn(i);
    if (nd == 0) return;
    std::size_t d = nd;
    while (d-- > 0) {
      if (++i[d] < box.hi[d]) break;
      i[d] = box.lo[d];
      if (d == 0) return;
    }
  }
}

arr::NDArray oracle_extract(const arr::NDArray& a, const arr::Box& box) {
  arr::Index shape(box.ndim());
  for (std::size_t d = 0; d < box.ndim(); ++d) shape[d] = box.extent(d);
  arr::NDArray out(shape);
  arr::Index rel(box.ndim());
  oracle_for_each(box, [&](const arr::Index& i) {
    for (std::size_t d = 0; d < i.size(); ++d) rel[d] = i[d] - box.lo[d];
    out.at(rel) = a.at(i);
  });
  return out;
}

void oracle_insert(arr::NDArray& a, const arr::Box& box,
                   const arr::NDArray& src) {
  arr::Index rel(box.ndim());
  oracle_for_each(box, [&](const arr::Index& i) {
    for (std::size_t d = 0; d < i.size(); ++d) rel[d] = i[d] - box.lo[d];
    a.at(i) = src.at(rel);
  });
}

arr::NDArray oracle_reshape_2d(const arr::NDArray& a,
                               const std::vector<std::size_t>& row_dims) {
  std::vector<bool> is_row(a.ndim(), false);
  for (std::size_t d : row_dims) is_row[d] = true;
  std::vector<std::size_t> col_dims;
  for (std::size_t d = 0; d < a.ndim(); ++d)
    if (!is_row[d]) col_dims.push_back(d);
  std::int64_t nrows = 1;
  for (std::size_t d : row_dims) nrows *= a.shape()[d];
  std::int64_t ncols = 1;
  for (std::size_t d : col_dims) ncols *= a.shape()[d];
  arr::NDArray out(arr::Index{nrows, ncols});
  arr::Index rc(2);
  oracle_for_each(arr::Box(arr::Index(a.ndim(), 0), a.shape()),
                  [&](const arr::Index& i) {
                    std::int64_t r = 0;
                    for (std::size_t d : row_dims)
                      r = r * a.shape()[d] + i[d];
                    std::int64_t c = 0;
                    for (std::size_t d : col_dims)
                      c = c * a.shape()[d] + i[d];
                    rc[0] = r;
                    rc[1] = c;
                    out.at(rc) = a.at(i);
                  });
  return out;
}

void expect_identical(const arr::NDArray& got, const arr::NDArray& want,
                      const char* what, std::uint64_t seed) {
  ASSERT_EQ(got.shape(), want.shape()) << what << " seed=" << seed;
  const auto g = got.flat();
  const auto w = want.flat();
  ASSERT_EQ(g.size(), w.size()) << what << " seed=" << seed;
  for (std::size_t i = 0; i < g.size(); ++i)
    ASSERT_EQ(g[i], w[i]) << what << " seed=" << seed << " flat " << i;
}

TEST(NDArrayProperty, ExtractInsertMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::uint64_t s = seed * 0x9e3779b97f4a7c15ull;
    const std::size_t rank = lcg(s) % 5;  // 0..4, incl. rank-0 and rank-1
    arr::Index shape(rank);
    for (auto& e : shape) e = static_cast<std::int64_t>(lcg(s) % 7);  // 0..6
    arr::NDArray a(shape);
    {
      auto f = a.flat();
      for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = static_cast<double>(lcg(s) % 1000) - 500.0;
    }
    arr::Box box;
    box.lo.resize(rank);
    box.hi.resize(rank);
    const std::uint64_t kind = lcg(s) % 4;
    for (std::size_t d = 0; d < rank; ++d) {
      if (kind == 0) {  // full-array box
        box.lo[d] = 0;
        box.hi[d] = shape[d];
      } else if (kind == 1) {  // definitely-empty box
        box.lo[d] = shape[d] / 2;
        box.hi[d] = box.lo[d];
      } else {  // random sub-box (may be empty in some dims)
        box.lo[d] = static_cast<std::int64_t>(lcg(s)) % (shape[d] + 1);
        box.hi[d] =
            box.lo[d] +
            static_cast<std::int64_t>(lcg(s)) % (shape[d] - box.lo[d] + 1);
      }
    }
    const arr::NDArray got = a.extract(box);
    const arr::NDArray want = oracle_extract(a, box);
    expect_identical(got, want, "extract", seed);

    // Insert a fresh random patch of the box's shape into two copies of
    // a second array — fast path vs oracle — and compare everything,
    // inside and outside the box.
    arr::NDArray patch(want.shape());
    {
      auto f = patch.flat();
      for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = static_cast<double>(lcg(s) % 1000) + 1000.0;
    }
    arr::NDArray fast(shape, -7.0);
    arr::NDArray oracle(shape, -7.0);
    fast.insert(box, patch);
    oracle_insert(oracle, box, patch);
    expect_identical(fast, oracle, "insert", seed);
  }
}

TEST(NDArrayProperty, Reshape2dMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    std::uint64_t s = seed * 0xda942042e4dd58b5ull;
    const std::size_t rank = lcg(s) % 5;
    arr::Index shape(rank);
    for (auto& e : shape) e = static_cast<std::int64_t>(lcg(s) % 6);  // 0..5
    arr::NDArray a(shape);
    {
      auto f = a.flat();
      for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = static_cast<double>(lcg(s) % 1000) * 0.25;
    }
    // Random subset of dims as row dims (in index order, incl. empty and
    // all-dims subsets).
    std::vector<std::size_t> row_dims;
    for (std::size_t d = 0; d < rank; ++d)
      if (lcg(s) % 2 == 0) row_dims.push_back(d);
    expect_identical(a.reshape_2d(row_dims), oracle_reshape_2d(a, row_dims),
                     "reshape_2d", seed);
  }
}

TEST(Box, IntersectAndVolume) {
  const arr::Box a(idx({0, 0}), idx({4, 4}));
  const arr::Box b(idx({2, 3}), idx({6, 8}));
  const arr::Box c = a.intersect(b);
  EXPECT_EQ(c.lo, idx({2, 3}));
  EXPECT_EQ(c.hi, idx({4, 4}));
  EXPECT_EQ(c.volume(), 2);
  const arr::Box d(idx({5, 5}), idx({6, 6}));
  EXPECT_TRUE(a.intersect(d).empty());
}

TEST(ChunkGrid, GeometryAndLinearization) {
  const arr::ChunkGrid g(idx({10, 6, 4}), idx({1, 3, 2}));
  EXPECT_EQ(g.chunks_in(0), 10);
  EXPECT_EQ(g.chunks_in(1), 2);
  EXPECT_EQ(g.chunks_in(2), 2);
  EXPECT_EQ(g.num_chunks(), 40);
  const arr::Box b = g.box_of(idx({3, 1, 0}));
  EXPECT_EQ(b.lo, idx({3, 3, 0}));
  EXPECT_EQ(b.hi, idx({4, 6, 2}));
  for (std::int64_t i = 0; i < g.num_chunks(); ++i)
    EXPECT_EQ(g.linear_of(g.coord_of(i)), i);
}

TEST(ChunkGrid, RaggedLastChunk) {
  const arr::ChunkGrid g(idx({10}), idx({4}));
  EXPECT_EQ(g.chunks_in(0), 3);
  EXPECT_EQ(g.box_of(idx({2})).extent(0), 2);  // last chunk is smaller
}

TEST(ChunkGrid, ChunksOverlapping) {
  const arr::ChunkGrid g(idx({8, 8}), idx({4, 4}));
  const auto all = g.chunks_overlapping(arr::Box(idx({0, 0}), idx({8, 8})));
  EXPECT_EQ(all.size(), 4u);
  const auto one = g.chunks_overlapping(arr::Box(idx({1, 1}), idx({3, 3})));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], idx({0, 0}));
  const auto row = g.chunks_overlapping(arr::Box(idx({3, 0}), idx({5, 8})));
  EXPECT_EQ(row.size(), 4u);
  EXPECT_TRUE(g.chunks_overlapping(arr::Box(idx({8, 8}), idx({9, 9}))).empty());
}

TEST(Naming, ChunkKeyRoundTrip) {
  const std::string key = arr::chunk_key("deisa-", "temp", idx({1, 3, 5}));
  EXPECT_EQ(key, "deisa-temp|1,3,5");
  const auto [name, coord] = arr::parse_chunk_key("deisa-", key);
  EXPECT_EQ(name, "temp");
  EXPECT_EQ(coord, idx({1, 3, 5}));
}

TEST(Naming, MalformedKeysThrow) {
  EXPECT_THROW(arr::parse_chunk_key("deisa-", "other-temp|1"),
               deisa::util::Error);
  EXPECT_THROW(arr::parse_chunk_key("deisa-", "deisa-temp|1,x"),
               deisa::util::Error);
}

TEST(Selection, IncludesChunk) {
  const arr::ChunkGrid g(idx({4, 8}), idx({1, 4}));
  arr::Selection sel(arr::Box(idx({0, 0}), idx({4, 4})));  // left half
  EXPECT_TRUE(sel.includes_chunk(g, idx({0, 0})));
  EXPECT_FALSE(sel.includes_chunk(g, idx({0, 1})));
  const auto all = arr::Selection::all(g.shape());
  EXPECT_TRUE(all.includes_chunk(g, idx({3, 1})));
}

TEST(Placement, RoundRobinIsStable) {
  EXPECT_EQ(arr::preselected_worker(0, 4), 0);
  EXPECT_EQ(arr::preselected_worker(5, 4), 1);
  EXPECT_THROW(arr::preselected_worker(1, 0), deisa::util::Error);
}

// ---- distributed tests ----

struct TestCluster {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit TestCluster(int workers = 2) {
    net::ClusterParams p;
    p.physical_nodes = workers + 4;
    p.jitter_sigma = 0.0;
    cluster = std::make_unique<net::Cluster>(eng, p);
    std::vector<int> wn;
    for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn);
    rt->start();
    client = &rt->make_client(1);
  }
};

dts::Data chunk_data(const arr::NDArray& a) {
  const std::uint64_t b = a.bytes();
  return dts::Data::make<arr::NDArray>(a, b);
}

sim::Co<void> external_array_flow(TestCluster& tc, arr::NDArray& out) {
  // 4x4 array chunked 2x2: 4 chunks, external.
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "temp", ix(4, 4), ix(2, 2));
  EXPECT_EQ(da.keys().size(), 4u);
  // Simulation pushes each block.
  for (std::int64_t i = 0; i < 4; ++i) {
    const arr::Index c = da.grid().coord_of(i);
    const arr::Box box = da.grid().box_of(c);
    arr::NDArray blk(ix(2, 2));
    for (std::int64_t r = 0; r < 2; ++r)
      for (std::int64_t q = 0; q < 2; ++q)
        blk.at(ix(r, q)) =
            static_cast<double>((box.lo[0] + r) * 10 + (box.lo[1] + q));
    co_await tc.client->scatter(da.key_of(c), chunk_data(blk), da.worker_of(c),
                                /*external=*/true);
  }
  out = co_await da.gather_box(arr::Selection::all(da.shape()));
  co_await tc.rt->shutdown();
}

TEST(DArray, ExternalChunksAssembleToGlobalArray) {
  TestCluster tc(2);
  arr::NDArray out;
  tc.eng.spawn(external_array_flow(tc, out));
  tc.eng.run();
  ASSERT_EQ(out.shape(), idx({4, 4}));
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(out.at(idx({i, j})), static_cast<double>(10 * i + j));
}

sim::Co<void> partial_gather_flow(TestCluster& tc, arr::NDArray& out) {
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "h", ix(4, 4), ix(2, 2));
  for (std::int64_t i = 0; i < 4; ++i) {
    const arr::Index c = da.grid().coord_of(i);
    const arr::Box box = da.grid().box_of(c);
    arr::NDArray blk(ix(2, 2));
    for (std::int64_t r = 0; r < 2; ++r)
      for (std::int64_t q = 0; q < 2; ++q)
        blk.at(ix(r, q)) =
            static_cast<double>((box.lo[0] + r) * 10 + (box.lo[1] + q));
    co_await tc.client->scatter(da.key_of(c), chunk_data(blk), da.worker_of(c),
                                true);
  }
  out = co_await da.gather_box(
      arr::Selection(arr::Box(ix(1, 1), ix(3, 4))));
  co_await tc.rt->shutdown();
}

TEST(DArray, GatherBoxSelectsSubarray) {
  TestCluster tc(2);
  arr::NDArray out;
  tc.eng.spawn(partial_gather_flow(tc, out));
  tc.eng.run();
  ASSERT_EQ(out.shape(), idx({2, 3}));
  EXPECT_DOUBLE_EQ(out.at(idx({0, 0})), 11.0);
  EXPECT_DOUBLE_EQ(out.at(idx({1, 2})), 23.0);
}

}  // namespace
