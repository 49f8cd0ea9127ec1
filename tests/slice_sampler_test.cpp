// Tests for the slice-grid sampler used by SNS-RND / SNS+RND.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/slice_sampler.h"

namespace sns {
namespace {

WindowDelta DeltaWithCells(std::vector<ModeIndex> cells) {
  WindowDelta delta;
  for (ModeIndex& cell : cells) delta.cells.push_back({cell, 1.0});
  return delta;
}

TEST(SliceSamplerTest, CellsAreDistinctInBoundsAndOnSlice) {
  SparseTensor window({6, 7, 5});
  Rng rng(1);
  WindowDelta delta;
  for (int trial = 0; trial < 20; ++trial) {
    auto cells = SampleSliceCells(window, /*mode=*/1, /*row=*/3,
                                  /*count=*/10, delta, rng);
    EXPECT_EQ(cells.size(), 10u);
    std::set<std::string> seen;
    for (const SampledCell& cell : cells) {
      EXPECT_EQ(cell.index.size(), 3);
      EXPECT_EQ(cell.index[1], 3);
      EXPECT_GE(cell.index[0], 0);
      EXPECT_LT(cell.index[0], 6);
      EXPECT_GE(cell.index[2], 0);
      EXPECT_LT(cell.index[2], 5);
      EXPECT_TRUE(seen.insert(cell.index.ToString()).second)
          << cell.index.ToString();
    }
  }
}

TEST(SliceSamplerTest, ExcludesDeltaCells) {
  SparseTensor window({2, 3, 2});
  Rng rng(2);
  // Slice mode 0, row 1 has 3*2 = 6 cells; exclude two of them.
  WindowDelta delta =
      DeltaWithCells({ModeIndex{1, 0, 0}, ModeIndex{1, 2, 1}});
  auto cells = SampleSliceCells(window, 0, 1, /*count=*/100, delta, rng);
  EXPECT_EQ(cells.size(), 4u);  // Enumeration path: all minus the 2 deltas.
  for (const SampledCell& cell : cells) {
    EXPECT_FALSE(cell.index == (ModeIndex{1, 0, 0}));
    EXPECT_FALSE(cell.index == (ModeIndex{1, 2, 1}));
  }
}

TEST(SliceSamplerTest, TinySliceEnumeratesEverything) {
  SparseTensor window({4, 3});
  Rng rng(3);
  WindowDelta delta;
  auto cells = SampleSliceCells(window, 1, 2, /*count=*/50, delta, rng);
  ASSERT_EQ(cells.size(), 4u);
  std::set<int32_t> first_indices;
  for (const SampledCell& cell : cells) {
    EXPECT_EQ(cell.index[1], 2);
    first_indices.insert(cell.index[0]);
  }
  EXPECT_EQ(first_indices.size(), 4u);
}

TEST(SliceSamplerTest, ApproximatelyUniformOverGrid) {
  SparseTensor window({10, 50});
  Rng rng(4);
  WindowDelta delta;
  std::map<int32_t, int> counts;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    for (const SampledCell& cell :
         SampleSliceCells(window, 0, 5, /*count=*/5, delta, rng)) {
      counts[cell.index[1]]++;
    }
  }
  // 4000 * 5 samples over 50 cells → mean 400 per cell.
  for (const auto& [index, count] : counts) {
    EXPECT_GT(count, 280) << index;
    EXPECT_LT(count, 520) << index;
  }
}

TEST(SliceSamplerTest, SamplesIncludeZeroCells) {
  // Window with a single non-zero: nearly all sampled cells must be zeros.
  SparseTensor window({30, 30, 4});
  window.Set({0, 0, 0}, 5.0);
  Rng rng(5);
  WindowDelta delta;
  auto cells = SampleSliceCells(window, 2, 0, /*count=*/40, delta, rng);
  EXPECT_EQ(cells.size(), 40u);
  int zero_cells = 0;
  for (const SampledCell& cell : cells) {
    // Sampled cells carry the window value so consumers never re-hash.
    EXPECT_DOUBLE_EQ(cell.value, window.Get(cell.index));
    if (cell.value == 0.0) ++zero_cells;
  }
  EXPECT_GE(zero_cells, 39);
}

// The rejection sampler written plainly: each candidate compared with the
// delta cells and the accepted cells coordinate by coordinate. The keyed
// SampleSliceCellsInto must draw the same RNG stream and return the same
// cells, in the same order, with the same values and keys.
std::vector<SampledCell> ReferenceRejectionSample(const SparseTensor& window,
                                                  int mode, int64_t row,
                                                  int64_t count,
                                                  const WindowDelta& delta,
                                                  Rng& rng) {
  std::vector<SampledCell> cells;
  ModeIndex index;
  for (int n = 0; n < window.num_modes(); ++n) index.PushBack(0);
  index[mode] = static_cast<int32_t>(row);
  int attempts = 0;
  while (static_cast<int64_t>(cells.size()) < count &&
         attempts++ < static_cast<int>(count) * 20 + 64) {
    uint64_t key = 0;
    for (int n = 0; n < window.num_modes(); ++n) {
      if (n == mode) continue;
      const int64_t i = rng.UniformInt(0, window.dim(n) - 1);
      index[n] = static_cast<int32_t>(i);
      key = key * static_cast<uint64_t>(window.dim(n)) +
            static_cast<uint64_t>(i);
    }
    bool skip = false;
    for (const DeltaCell& cell : delta.cells) {
      skip = skip || cell.index == index;
    }
    for (const SampledCell& cell : cells) skip = skip || cell.index == index;
    if (!skip) cells.push_back({index, window.Get(index), key});
  }
  return cells;
}

TEST(SliceSamplerTest, MatchesPlainRejectionSamplerDrawForDraw) {
  Rng data(6);
  for (const std::vector<int64_t>& dims :
       {std::vector<int64_t>{9, 8, 5}, std::vector<int64_t>{4, 6, 3, 5}}) {
    SparseTensor window(dims);
    window.TrackOccupancy();  // As the continuous window does.
    const int modes = static_cast<int>(dims.size());
    auto random_cell = [&] {
      ModeIndex index;
      for (const int64_t dim : dims) {
        index.PushBack(static_cast<int32_t>(data.UniformInt(0, dim - 1)));
      }
      return index;
    };
    for (int i = 0; i < 120; ++i) window.Set(random_cell(), data.Normal());
    for (int trial = 0; trial < 300; ++trial) {
      const int mode = static_cast<int>(data.NextUint64(modes));
      const int64_t row =
          data.UniformInt(0, dims[static_cast<size_t>(mode)] - 1);
      // A slide's two delta cells, both in the slice, or one outside it.
      WindowDelta delta;
      for (int d = 0; d < 2; ++d) {
        ModeIndex cell = random_cell();
        if (trial % 3 != 0) cell[mode] = static_cast<int32_t>(row);
        delta.cells.push_back({cell, 1.0});
      }
      // θ near the slice grid forces duplicates and long rejection runs.
      const int64_t count = 3 + static_cast<int64_t>(data.NextUint64(12));
      const uint64_t seed = data.NextUint64(1u << 30);
      Rng fast_rng(seed), reference_rng(seed);
      std::vector<SampledCell> fast;
      SampleSliceCellsInto(window, mode, row, count, delta, fast_rng, fast);
      int64_t grid = 1;
      for (int n = 0; n < modes; ++n) {
        if (n != mode) grid *= dims[static_cast<size_t>(n)];
      }
      if (grid <= count + 2) continue;  // The enumeration branch.
      const std::vector<SampledCell> reference = ReferenceRejectionSample(
          window, mode, row, count, delta, reference_rng);
      ASSERT_EQ(fast.size(), reference.size());
      for (size_t c = 0; c < fast.size(); ++c) {
        EXPECT_TRUE(fast[c].index == reference[c].index) << c;
        EXPECT_EQ(fast[c].value, reference[c].value) << c;
        EXPECT_EQ(fast[c].offset, reference[c].offset) << c;
      }
      EXPECT_EQ(fast_rng.NextUint64(1u << 30),
                reference_rng.NextUint64(1u << 30));
    }
  }
}

}  // namespace
}  // namespace sns
