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

// θ is a small constant (Table III uses 20), so a linear scan over the
// integer keys beats a hash set here. Keys are unique while the slice grid
// has fewer than 2^64 cells; past that they wrap, and equal keys are
// confirmed on the coordinates.
// `cells` ends with the candidate's own record, which is not compared.
bool AlreadySampled(const std::vector<SampledCell>& cells, uint64_t key,
                    const ModeIndex& index, bool keys_unique) {
  for (size_t c = 0; c + 1 < cells.size(); ++c) {
    if (cells[c].offset == key && (keys_unique || cells[c].index == index)) {
      return true;
    }
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
  // Size of the slice grid (product of the other modes' extents), and
  // whether it stays below 2^64 cells.
  double grid_size = 1.0;
  uint64_t grid_cells = 1;
  bool keys_unique = true;
  for (int n = 0; n < modes; ++n) {
    extent[static_cast<size_t>(n)] = window.dim(n);
    if (n == mode) continue;
    grid_size *= static_cast<double>(window.dim(n));
    const auto dim = static_cast<uint64_t>(window.dim(n));
    keys_unique =
        keys_unique && !__builtin_mul_overflow(grid_cells, dim, &grid_cells);
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
  // While keys are unique, a candidate is told from the delta cells of this
  // slice (at most the two a slide touches) by its key alone.
  uint64_t delta_keys[2];
  int num_delta_keys = 0;
  bool delta_by_key = keys_unique;
  for (const DeltaCell& cell : delta.cells) {
    if (cell.index[mode] != row) continue;
    if (num_delta_keys == 2) {
      delta_by_key = false;
      break;
    }
    uint64_t key = 0;
    for (int n = 0; n < modes; ++n) {
      if (n == mode) continue;
      key = key * static_cast<uint64_t>(extent[static_cast<size_t>(n)]) +
            static_cast<uint64_t>(cell.index[n]);
    }
    delta_keys[num_delta_keys++] = key;
  }
  // Bit (key mod 64) is set once a cell with that key is accepted: the
  // linear duplicate scan runs only for candidates whose bit is set.
  uint64_t seen = 0;
  // A local copy keeps the RNG state in registers: stores into `cells`
  // could otherwise alias it. Written back below.
  Rng local_rng = rng;
  cells.reserve(static_cast<size_t>(count));
  int attempts = 0;
  const int max_attempts = static_cast<int>(count) * 20 + 64;
  while (static_cast<int64_t>(cells.size()) < count &&
         attempts++ < max_attempts) {
    // The candidate is drawn straight into a new record, dropped again if
    // rejected (rare: the grid dwarfs `count`).
    SampledCell& cell = cells.emplace_back();
    cell.index = index;
    uint64_t key = 0;
    for (int n = 0; n < modes; ++n) {
      if (n == mode) continue;
      const int64_t dim = extent[static_cast<size_t>(n)];
      const int64_t i = local_rng.UniformInt(0, dim - 1);
      cell.index[n] = static_cast<int32_t>(i);
      key = key * static_cast<uint64_t>(dim) + static_cast<uint64_t>(i);
    }
    bool rejected;
    if (delta_by_key) {
      rejected = (num_delta_keys > 0 && key == delta_keys[0]) ||
                 (num_delta_keys > 1 && key == delta_keys[1]);
    } else {
      rejected = IsDeltaCell(delta, cell.index);
    }
    const uint64_t bit = uint64_t{1} << (key & 63);
    if (!rejected && (seen & bit) != 0) {
      rejected = AlreadySampled(cells, key, cell.index, keys_unique);
    }
    if (rejected) {
      cells.pop_back();
      continue;
    }
    seen |= bit;
    cell.value = window.Get(cell.index);
    cell.offset = key;
  }
  rng = local_rng;
}

}  // namespace sns
