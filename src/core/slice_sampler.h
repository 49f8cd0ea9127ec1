// Uniform sampling of cells from one tensor slice for SNS-RND / SNS+RND
// (Alg. 4 line 12 / Alg. 5 line 10).
//
// S is drawn from the *full index grid* of the slice {J : J[mode] = row} —
// zero cells included — not merely from its non-zeros: the paper defines
// x̄_J = x_J − x̃_J "for any index J of X", and sampled zero cells (where
// x̄_J = −x̃_J) are what pulls spurious model mass back down. Cells changed
// by the current event are excluded per footnote 2.
//
// Sampled cells carry their window value, fetched exactly once here, so the
// consumers (RowUpdater's sampled rule and its θ-sampled GCP step) never
// re-hash the window per cell.
//
// Cost per call: θ·(M−1) bounded-integer draws, one window lookup per
// accepted cell, and O(θ²) integer compares at worst — each candidate is
// keyed by its mixed-radix offset in the slice grid, so de-duplication
// compares one uint64 per accepted cell, not M coordinates, and only for
// candidates whose key passes a 64-bit filter of the accepted keys.
// Delta-cell exclusion compares keys as well, against the (at most two)
// delta cells in the slice. Coordinates are compared only on grids of 2^64
// cells or more, where keys wrap. The window is sparse, so most lookups
// miss, and a window that tracks occupancy (tensor/sparse_tensor.h)
// answers a miss with one bit test instead of a hash probe.

#ifndef SLICENSTITCH_CORE_SLICE_SAMPLER_H_
#define SLICENSTITCH_CORE_SLICE_SAMPLER_H_

#include <vector>

#include "common/random.h"
#include "stream/event.h"
#include "tensor/sparse_tensor.h"

namespace sns {

/// One sampled slice cell: its window coordinate, current window value
/// (0.0 for the — typical — zero cells) and slice-grid offset: the other
/// modes' coordinates read as a mixed-radix number in mode order (wrapping
/// modulo 2^64 for grids that large; 0 for cells not made by the sampler).
struct SampledCell {
  ModeIndex index;
  double value = 0.0;
  uint64_t offset = 0;
};

/// Samples up to `count` distinct cells uniformly without replacement from
/// the slice grid {J : J[mode] = row} of `window`'s shape into `out`
/// (cleared first, capacity preserved), never returning a cell of `delta`.
/// If the slice grid (minus delta cells) has at most `count` cells, all of
/// them are returned — so at most count + delta.cells.size() cells are ever
/// produced. Each cell carries its window value. The RNG draw order is one
/// UniformInt per non-`mode` coordinate per candidate, in mode order; the
/// enumeration branch draws nothing. With `out` pre-reserved
/// (see UpdateWorkspace) this performs no heap allocation — the hot-path
/// form used by the RND updaters.
void SampleSliceCellsInto(const SparseTensor& window, int mode, int64_t row,
                          int64_t count, const WindowDelta& delta, Rng& rng,
                          std::vector<SampledCell>& out);

/// Allocating convenience wrapper over SampleSliceCellsInto.
std::vector<SampledCell> SampleSliceCells(const SparseTensor& window, int mode,
                                          int64_t row, int64_t count,
                                          const WindowDelta& delta, Rng& rng);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_SLICE_SAMPLER_H_
