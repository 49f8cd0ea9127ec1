#include "core/slice_sampler.h"

#include <array>

namespace sns {
namespace {

bool IsDeltaCell(const WindowDelta& delta, const ModeIndex& index) {
  for (const DeltaCell& cell : delta.cells) {
    if (cell.index == index) return true;
  }
  return false;
}

bool AlreadySampled(const std::vector<SampledCell>& cells, uint64_t key,
                    const ModeIndex& index) {
  // θ is a small constant (Table III uses 20), so a linear scan over the
  // integer keys beats a hash set here. Equal keys are confirmed on the
  // coordinates, which only matters for grids past 2^64 cells.
  for (const SampledCell& cell : cells) {
    if (cell.offset == key && cell.index == index) return true;
  }
  return false;
}

}  // namespace

std::vector<SampledCell> SampleSliceCells(const SparseTensor& window, int mode,
                                          int64_t row, int64_t count,
                                          const WindowDelta& delta, Rng& rng) {
  std::vector<SampledCell> cells;
  SampleSliceCellsInto(window, mode, row, count, delta, rng, cells);
  return cells;
}

void SampleSliceCellsInto(const SparseTensor& window, int mode, int64_t row,
                          int64_t count, const WindowDelta& delta, Rng& rng,
                          std::vector<SampledCell>& out) {
  const int modes = window.num_modes();
  std::array<int64_t, kMaxTensorModes> extent{};
  // Size of the slice grid (product of the other modes' extents).
  double grid_size = 1.0;
  for (int n = 0; n < modes; ++n) {
    extent[static_cast<size_t>(n)] = window.dim(n);
    if (n != mode) grid_size *= static_cast<double>(window.dim(n));
  }

  ModeIndex index;
  for (int n = 0; n < modes; ++n) index.PushBack(0);
  index[mode] = static_cast<int32_t>(row);

  std::vector<SampledCell>& cells = out;
  cells.clear();
  if (grid_size <= static_cast<double>(count) + delta.cells.size()) {
    // Tiny slice: enumerate every cell (odometer over the other modes, the
    // last mode fastest — so the offset simply counts up).
    for (uint64_t key = 0;; ++key) {
      if (!IsDeltaCell(delta, index)) {
        cells.push_back({index, window.Get(index), key});
      }
      int n = modes - 1;
      while (n >= 0) {
        if (n == mode) {
          --n;
          continue;
        }
        if (++index[n] < extent[static_cast<size_t>(n)]) break;
        index[n] = 0;
        --n;
      }
      if (n < 0) break;
    }
    return;
  }

  // Rejection sampling without replacement; duplicates are rare because the
  // grid dwarfs `count`. One draw per non-`mode` coordinate, in mode order.
  cells.reserve(static_cast<size_t>(count));
  int attempts = 0;
  const int max_attempts = static_cast<int>(count) * 20 + 64;
  while (static_cast<int64_t>(cells.size()) < count &&
         attempts++ < max_attempts) {
    uint64_t key = 0;
    for (int n = 0; n < modes; ++n) {
      if (n == mode) continue;
      const int64_t dim = extent[static_cast<size_t>(n)];
      const int64_t i = rng.UniformInt(0, dim - 1);
      index[n] = static_cast<int32_t>(i);
      key = key * static_cast<uint64_t>(dim) + static_cast<uint64_t>(i);
    }
    if (IsDeltaCell(delta, index)) continue;
    if (AlreadySampled(cells, key, index)) continue;
    cells.push_back({index, window.Get(index), key});
  }
}

}  // namespace sns
