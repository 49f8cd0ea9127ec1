// Storage-engine tests for the flat entry pool behind SparseTensor:
//   - a randomized differential test driving thousands of Add / Set /
//     erase-to-zero / slice-iterate / degree operations against a naive
//     std::map reference model,
//   - a window-churn test asserting no near-zero residue or bucket leak
//     after full slide-expiry cycles,
//   - a regression guard pinning the hash-lookup count of slice iteration
//     and MttkrpRow at zero (the pre-refactor code re-hashed per entry),
//   - a differential test of the occupancy bitset's Get against the hash
//     probe and a std::map reference, on grids below and above its cap.

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serial.h"
#include "stream/continuous_window.h"
#include "tensor/kruskal.h"
#include "tensor/mttkrp.h"
#include "tensor/sparse_tensor.h"

namespace sns {
namespace {

ModeIndex RandomIndex(const std::vector<int64_t>& dims, Rng& rng) {
  ModeIndex index;
  for (int64_t dim : dims) {
    index.PushBack(static_cast<int32_t>(rng.UniformInt(0, dim - 1)));
  }
  return index;
}

using ReferenceModel = std::map<std::string, std::pair<ModeIndex, double>>;

// Deep equality between the tensor and the reference: nnz, point lookups,
// per-(mode, index) degrees, slice contents (with values), pool iteration,
// and the Frobenius norm.
void ExpectMatchesReference(const SparseTensor& x,
                            const ReferenceModel& reference,
                            const std::vector<int64_t>& dims) {
  ASSERT_EQ(x.nnz(), static_cast<int64_t>(reference.size()));
  double norm_sq = 0.0;
  for (const auto& [key, entry] : reference) {
    EXPECT_DOUBLE_EQ(x.Get(entry.first), entry.second) << key;
    norm_sq += entry.second * entry.second;
  }
  EXPECT_NEAR(x.FrobeniusNormSquared(), norm_sq, 1e-9 * (1.0 + norm_sq));

  int64_t visited = 0;
  x.ForEachNonzero([&](const ModeIndex& index, double value) {
    ++visited;
    auto it = reference.find(index.ToString());
    ASSERT_NE(it, reference.end()) << index.ToString();
    EXPECT_DOUBLE_EQ(value, it->second.second) << index.ToString();
  });
  EXPECT_EQ(visited, x.nnz());

  for (int m = 0; m < static_cast<int>(dims.size()); ++m) {
    for (int64_t i = 0; i < dims[static_cast<size_t>(m)]; ++i) {
      int64_t expected_degree = 0;
      for (const auto& [key, entry] : reference) {
        if (entry.first[m] == i) ++expected_degree;
      }
      ASSERT_EQ(x.Degree(m, i), expected_degree)
          << "mode " << m << " index " << i;
      int64_t seen = 0;
      for (const auto slice_entry : x.Slice(m, i)) {
        ++seen;
        ASSERT_EQ(slice_entry.coords[m], i);
        auto it = reference.find(slice_entry.coords.ToString());
        ASSERT_NE(it, reference.end()) << slice_entry.coords.ToString();
        EXPECT_DOUBLE_EQ(slice_entry.value, it->second.second);
      }
      EXPECT_EQ(seen, expected_degree);
    }
  }
}

// 10k randomized storage operations (inserts, in-place updates, exact
// erase-to-zero, Set-to-zero, occasional Clear) diffed against the naive
// reference model. Exercises pool swap-erase, hash backshift deletion, and
// table growth across many load factors.
TEST(EntryPoolStorageTest, DifferentialAgainstMapReference) {
  Rng rng(0xd1ff);
  const std::vector<int64_t> dims = {6, 5, 4};
  SparseTensor x(dims);
  ReferenceModel reference;

  auto apply_reference = [&](const ModeIndex& index, double value) {
    if (std::fabs(value) < SparseTensor::kZeroEpsilon) {
      reference.erase(index.ToString());
    } else {
      reference[index.ToString()] = {index, value};
    }
  };

  for (int step = 0; step < 10000; ++step) {
    const ModeIndex index = RandomIndex(dims, rng);
    const uint64_t op = rng.NextUint64(10);
    if (op < 5) {
      // Add a random (possibly negative, possibly zero) delta.
      const double delta = static_cast<double>(rng.UniformInt(-2, 2));
      const double result = x.Add(index, delta);
      auto it = reference.find(index.ToString());
      const double before = it == reference.end() ? 0.0 : it->second.second;
      apply_reference(index, before + delta);
      EXPECT_DOUBLE_EQ(result, x.Get(index));
    } else if (op < 7) {
      // Exact erase-to-zero of an existing cell (the window's
      // add-then-subtract pattern).
      auto it = reference.find(index.ToString());
      const double before = it == reference.end() ? 0.0 : it->second.second;
      EXPECT_DOUBLE_EQ(x.Add(index, -before), 0.0);
      apply_reference(index, 0.0);
      EXPECT_EQ(x.Get(index), 0.0);
    } else if (op < 9) {
      const double value =
          op == 7 ? 0.0 : rng.UniformDouble(-3.0, 3.0);
      x.Set(index, value);
      apply_reference(index, value);
    } else if (rng.NextUint64(200) == 0) {
      x.Clear();
      reference.clear();
    }

    // Light invariants every step; deep diff periodically.
    ASSERT_EQ(x.nnz(), static_cast<int64_t>(reference.size()));
    if (step % 500 == 499) ExpectMatchesReference(x, reference, dims);
  }
  ExpectMatchesReference(x, reference, dims);
}

// The reserve hint must be semantics-free: a pre-sized tensor behaves
// identically to an unsized one under the same operation stream.
TEST(EntryPoolStorageTest, ReserveHintDoesNotChangeBehavior) {
  const std::vector<int64_t> dims = {8, 7, 3};
  SparseTensor plain(dims);
  SparseTensor reserved(dims, /*expected_nnz=*/4096);
  Rng rng(77);
  for (int step = 0; step < 2000; ++step) {
    const ModeIndex index = RandomIndex(dims, rng);
    const double delta = static_cast<double>(rng.UniformInt(-2, 2));
    EXPECT_DOUBLE_EQ(plain.Add(index, delta), reserved.Add(index, delta));
  }
  ASSERT_EQ(plain.nnz(), reserved.nnz());
  plain.ForEachNonzero([&](const ModeIndex& index, double value) {
    EXPECT_DOUBLE_EQ(reserved.Get(index), value);
  });
}

// Full window churn: ingest several window spans of tuples, drain every
// scheduled slide and expiry, and require the storage to come back exactly
// empty — no near-zero residue entries, no stale bucket ids in any mode.
TEST(EntryPoolStorageTest, WindowChurnLeavesNoResidue) {
  const std::vector<int64_t> mode_dims = {9, 6};
  const int window_size = 4;
  const int64_t period = 10;
  ContinuousTensorWindow window(mode_dims, window_size, period);
  Rng rng(0xc4u);

  int64_t now = 0;
  for (int t = 0; t < 500; ++t) {
    now += static_cast<int64_t>(rng.NextUint64(4));
    Tuple tuple;
    tuple.index = RandomIndex(mode_dims, rng);
    // Fractional values stress the epsilon-erase path.
    tuple.value = rng.UniformDouble(-2.0, 2.0);
    tuple.time = now;
    window.AdvanceTo(now);
    window.Ingest(tuple);
  }
  // Drain past the last expiry: every tuple has fully slid out.
  while (window.HasScheduled()) window.PopScheduled();

  const SparseTensor& x = window.tensor();
  EXPECT_EQ(x.nnz(), 0);
  EXPECT_EQ(x.FrobeniusNormSquared(), 0.0);
  EXPECT_EQ(x.MaxAbsValue(), 0.0);
  for (int m = 0; m < x.num_modes(); ++m) {
    for (int64_t i = 0; i < x.dim(m); ++i) {
      EXPECT_EQ(x.Degree(m, i), 0) << "bucket leak at mode " << m
                                   << " index " << i;
      EXPECT_TRUE(x.Slice(m, i).empty());
    }
  }
}

// Regression guard for the MttkrpRow re-hash bug: slice iteration carries
// values straight out of the pool, so running MttkrpRow over every slice of
// every mode must perform ZERO coordinate-hash lookups. The pre-refactor
// code called x.Get(index) per slice entry, which would trip this.
TEST(EntryPoolStorageTest, MttkrpRowPerformsNoHashLookups) {
  Rng rng(0x517e);
  const std::vector<int64_t> dims = {12, 9, 7};
  const int64_t rank = 5;
  KruskalModel model = KruskalModel::Random(dims, rank, rng);
  SparseTensor x(dims);
  for (int step = 0; step < 300; ++step) {
    x.Set(RandomIndex(dims, rng), rng.Normal());
  }

  const uint64_t lookups_before = x.hash_lookup_count();
  std::vector<double> row(static_cast<size_t>(PaddedRank(rank)));
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t i = 0; i < dims[static_cast<size_t>(mode)]; ++i) {
      MttkrpRow(x, model.factors(), mode, i, row.data());
    }
  }
  // Full-tensor iteration is hash-free too.
  double sum = 0.0;
  x.ForEachNonzero([&](const ModeIndex&, double value) { sum += value; });
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t i = 0; i < dims[static_cast<size_t>(mode)]; ++i) {
      for (const auto entry : x.Slice(mode, i)) sum += entry.value;
    }
  }
  EXPECT_NE(sum, -1.0);  // Keep the loops observable.
  EXPECT_EQ(x.hash_lookup_count(), lookups_before)
      << "slice/pool iteration must not touch the coordinate hash index";
}

// The occupancy bitset against the hash probe: random Add / Set / Clear /
// RestoreFrom runs — net-zero inserts and kZeroEpsilon erasures included —
// on a grid under SparseTensor::kOccupancyCap (504 cells, eight bitset
// words) that tracks occupancy, on the same grid untracked and on a
// tracked grid above the cap (both plain hash probes). Every Get matches a
// std::map reference, and with the bitset a Get of a cell whose bit is
// clear is answered without a hash lookup: hash_lookup_count only counts
// probe sequences of the coordinate hash index.
TEST(EntryPoolStorageTest, OccupancyBitsetMatchesHashAndMapReference) {
  struct Grid {
    std::vector<int64_t> dims;
    bool track;
    const char* name;
  };
  const Grid grids[] = {{{9, 8, 7}, true, "bitset"},
                        {{9, 8, 7}, false, "untracked"},
                        {{4097, 4097, 2}, true, "above the cap"}};
  for (const Grid& grid : grids) {
    const std::vector<int64_t>& dims = grid.dims;
    int64_t grid_cells = 1;
    for (const int64_t dim : dims) grid_cells *= dim;
    const bool bitset =
        grid.track && grid_cells <= SparseTensor::kOccupancyCap;
    SCOPED_TRACE(grid.name);
    Rng rng(0xb175e7);
    // A pool of 60 cells revisited often, so inserts, updates and erasures
    // hit the same bits; a fifth of the operations touch a fresh cell.
    std::vector<ModeIndex> hot;
    for (int i = 0; i < 60; ++i) hot.push_back(RandomIndex(dims, rng));
    auto pick = [&] {
      return rng.NextUint64(5) == 0 ? RandomIndex(dims, rng)
                                    : hot[rng.NextUint64(hot.size())];
    };
    SparseTensor x(dims);
    if (grid.track) x.TrackOccupancy();
    std::map<std::string, double> reference;
    auto expected = [&](const ModeIndex& index) {
      const auto it = reference.find(index.ToString());
      return it == reference.end() ? 0.0 : it->second;
    };
    auto record = [&](const ModeIndex& index, double value) {
      if (std::fabs(value) < SparseTensor::kZeroEpsilon) {
        reference.erase(index.ToString());
      } else {
        reference[index.ToString()] = value;
      }
    };

    for (int step = 0; step < 4000; ++step) {
      const ModeIndex index = pick();
      const double before = expected(index);
      switch (rng.NextUint64(8)) {
        case 0:  // Integer delta; 0 on an absent cell is a net-zero insert.
        case 1: {
          const double delta = static_cast<double>(rng.UniformInt(-2, 2));
          x.Add(index, delta);
          record(index, before + delta);
          break;
        }
        case 2:  // Lands within kZeroEpsilon of zero: erased (or never made).
          x.Add(index, -before + 0.5 * SparseTensor::kZeroEpsilon);
          record(index, 0.0);
          break;
        case 3:
          x.Set(index, rng.UniformDouble(-3.0, 3.0));
          record(index, x.Get(index));
          break;
        case 4:  // Below kZeroEpsilon: an erasure.
          x.Set(index, 0.25 * SparseTensor::kZeroEpsilon);
          record(index, 0.0);
          break;
        case 5:
          if (rng.NextUint64(50) == 0) {
            x.Clear();
            reference.clear();
          }
          break;
        case 6:
          if (rng.NextUint64(20) == 0) {
            // The bitset is not serialized: RestoreFrom rebuilds it when
            // occupancy is tracked first (as the continuous window does),
            // and TrackOccupancy builds it from the stored cells after.
            serial::StringSink sink;
            serial::Writer writer(sink);
            x.SerializeTo(writer);
            SparseTensor restored(dims);
            const bool track_first = rng.NextUint64(2) == 0;
            if (grid.track && track_first) restored.TrackOccupancy();
            serial::StringSource source(sink.data());
            serial::Reader reader(source);
            ASSERT_TRUE(restored.RestoreFrom(reader).ok());
            if (grid.track && !track_first) restored.TrackOccupancy();
            x = std::move(restored);
          }
          break;
        default: {  // A lookup alone; above the cap, always one probe.
          const uint64_t lookups = x.hash_lookup_count();
          ASSERT_EQ(x.Get(index), expected(index)) << index.ToString();
          if (!bitset) {
            EXPECT_EQ(x.hash_lookup_count(), lookups + 1);
          }
          break;
        }
      }
      ASSERT_EQ(x.Get(index), expected(index)) << index.ToString();
      ASSERT_EQ(x.nnz(), static_cast<int64_t>(reference.size()));
      if (step % 400 == 399) {
        for (const ModeIndex& cell : hot) {
          ASSERT_EQ(x.Get(cell), expected(cell)) << cell.ToString();
        }
        if (bitset) {
          // Every cell of the grid, and every absent one unhashed.
          const uint64_t lookups = x.hash_lookup_count();
          int64_t absent = 0;
          ModeIndex cell;
          for (size_t m = 0; m < dims.size(); ++m) cell.PushBack(0);
          for (int32_t i = 0; i < dims[0]; ++i) {
            for (int32_t j = 0; j < dims[1]; ++j) {
              for (int32_t k = 0; k < dims[2]; ++k) {
                cell[0] = i;
                cell[1] = j;
                cell[2] = k;
                ASSERT_EQ(x.Get(cell), expected(cell)) << cell.ToString();
                if (expected(cell) == 0.0) ++absent;
              }
            }
          }
          EXPECT_EQ(x.hash_lookup_count() - lookups,
                    static_cast<uint64_t>(grid_cells - absent));
        }
      }
    }
  }
}

}  // namespace
}  // namespace sns
