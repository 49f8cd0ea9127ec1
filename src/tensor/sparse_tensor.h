// Sparse COO tensor over a flat entry pool with per-(mode, index) buckets.
//
// Storage layout (see tensor/entry_pool.h): non-zeros live in one contiguous
// SoA pool addressed by dense uint32_t ids; an open-addressed hash index
// maps coordinate → id; and for every mode m and index i, buckets_[m][i]
// lists the *pool ids* (not coordinate copies) of the non-zeros whose m-th
// mode index is i. Each pool entry carries its position inside all of its M
// buckets, so bucket removal is swap-erase O(1) and pool erasure is
// swap-with-last O(M). A tensor that TrackOccupancy() was called on, and
// whose grid has at most kOccupancyCap cells, also keeps an occupancy
// bitset: one bit per cell at its row-major offset (taxi's 265×265×10
// window: 88 KB; the cap bounds it at 2 MiB), set while the cell is stored.
// A Get whose bit is clear answers 0.0 without hashing. The continuous
// window tracks occupancy because its θ-sampler's probes are mostly such
// misses; other tensors (periodic windows, baseline units) do not pay for
// the bitset. It is derived state — rebuilt by RestoreFrom, never
// serialized — and larger grids keep the plain hash probe. That gives the
// SliceNStitch updaters exactly the operations they need at the cost
// bounds of Theorems 1-4:
//   - deg(m, i)          — |X_(m)(i, :)|, Theorem 4's degree, O(1),
//   - slice iteration    — the sum over Ω^(m)_i in Eqs. 12 & 21, hash-free
//                          and value-carrying via Slice(),
//   - point updates      — O(M) amortized via the pool index,
//   - uniform sampling   — the θ-sample of SNS-RND / SNS+RND (Alg. 4).
//
// Iteration invalidation rules: Slice() views and entry references are
// invalidated by ANY mutation (Add/Set/Clear/Reserve) — erasure swaps
// arbitrary entries into freed ids and growth reallocates the pool arrays.
// ForEachNonzero visits entries in unspecified order and must not mutate
// the tensor from inside the callback.

#ifndef SLICENSTITCH_TENSOR_SPARSE_TENSOR_H_
#define SLICENSTITCH_TENSOR_SPARSE_TENSOR_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "tensor/entry_pool.h"
#include "tensor/mode_index.h"

namespace sns {

namespace serial {
class Writer;
class Reader;
}  // namespace serial

/// Sparse tensor over a fixed dense shape. Cells not present are zero.
/// Entries whose magnitude drops below kZeroEpsilon after an update are
/// removed, so the continuous window's add-then-subtract event pairs do not
/// leak near-zero residue.
class SparseTensor {
 public:
  static constexpr double kZeroEpsilon = 1e-12;
  /// Largest grid that gets an occupancy bitset: 2^24 cells, so the bitset
  /// never takes more than 2 MiB.
  static constexpr int64_t kOccupancyCap = int64_t{1} << 24;

  /// An empty tensor of the given shape (one extent per mode).
  /// `expected_nnz` (optional) pre-sizes the pool and hash index so bulk
  /// ingestion avoids rehash/realloc storms.
  explicit SparseTensor(std::vector<int64_t> dims, int64_t expected_nnz = 0);

  /// Pre-sizes storage for `expected_nnz` entries (never shrinks), capped
  /// at the tensor's cell count: a hint past it cannot be met, and
  /// honouring it would only exhaust memory.
  void Reserve(int64_t expected_nnz);

  int num_modes() const { return static_cast<int>(dims_.size()); }
  const std::vector<int64_t>& dims() const { return dims_; }
  int64_t dim(int mode) const { return dims_[mode]; }

  /// Number of non-zero cells.
  int64_t nnz() const { return static_cast<int64_t>(pool_.size()); }

  /// Keeps the occupancy bitset from now on, built from the stored cells.
  /// A no-op when the grid has more than kOccupancyCap cells or the bitset
  /// exists already.
  void TrackOccupancy();

  /// Value at a cell (0.0 when absent). With an occupancy bitset, a cell
  /// whose bit is clear is answered without a hash lookup
  /// (hash_lookup_count is unchanged).
  double Get(const ModeIndex& index) const {
    SNS_DCHECK(IndexInBounds(index));
    if (!occupancy_.empty() && !Occupied(CellOffset(index))) return 0.0;
    const uint32_t id = pool_.Find(index);
    return id == EntryPool::kInvalidId ? 0.0 : pool_.value(id);
  }

  /// Adds `delta` to a cell, creating or erasing the entry as needed.
  /// Returns the new value of the cell.
  double Add(const ModeIndex& index, double delta);

  /// Sets a cell to an exact value (erases it when |value| < kZeroEpsilon).
  void Set(const ModeIndex& index, double value);

  /// Removes every entry.
  void Clear();

  /// deg(m, i): number of non-zeros whose m-th mode index is i.
  int64_t Degree(int mode, int64_t index) const {
    return static_cast<int64_t>(buckets_[mode][index].size());
  }

  /// One (coordinate, value) pair of a slice or pool walk.
  struct SliceEntry {
    const ModeIndex& coords;
    double value;
  };

  /// Forward iterator over a bucket of pool ids, dereferencing straight into
  /// the pool — no coordinate copies, no hash lookups.
  class SliceIterator {
   public:
    SliceIterator(const EntryPool* pool, const uint32_t* id)
        : pool_(pool), id_(id) {}
    SliceEntry operator*() const {
      return {pool_->coords(*id_), pool_->value(*id_)};
    }
    SliceIterator& operator++() {
      ++id_;
      return *this;
    }
    friend bool operator==(const SliceIterator& a, const SliceIterator& b) {
      return a.id_ == b.id_;
    }
    friend bool operator!=(const SliceIterator& a, const SliceIterator& b) {
      return a.id_ != b.id_;
    }

   private:
    const EntryPool* pool_;
    const uint32_t* id_;
  };

  /// Value-carrying view of the non-zeros with the m-th mode index fixed to
  /// i (unspecified order). Invalidated by any mutation of the tensor.
  class SliceView {
   public:
    SliceView(const EntryPool* pool, const std::vector<uint32_t>* ids)
        : pool_(pool), ids_(ids) {}
    size_t size() const { return ids_->size(); }
    bool empty() const { return ids_->empty(); }
    SliceIterator begin() const { return {pool_, ids_->data()}; }
    SliceIterator end() const { return {pool_, ids_->data() + ids_->size()}; }

   private:
    const EntryPool* pool_;
    const std::vector<uint32_t>* ids_;
  };

  /// The slice Ω^(mode)_index as a (coords, value) range.
  SliceView Slice(int mode, int64_t index) const {
    return SliceView(&pool_, &buckets_[mode][index]);
  }

  /// Invokes fn(coordinate, value) for every non-zero (unspecified order).
  /// A linear walk over the pool arrays; fn must not mutate the tensor.
  template <typename Fn>
  void ForEachNonzero(Fn&& fn) const {
    const uint32_t n = pool_.size();
    for (uint32_t id = 0; id < n; ++id) fn(pool_.coords(id), pool_.value(id));
  }

  /// Σ x² over non-zeros.
  double FrobeniusNormSquared() const;

  /// Largest |x| over non-zeros (0 when empty).
  double MaxAbsValue() const;

  /// True if `index` has num_modes() coordinates all within the shape.
  bool IndexInBounds(const ModeIndex& index) const;

  /// Probe sequences performed against the coordinate hash index so far.
  /// Regression instrumentation: slice iteration must leave this unchanged,
  /// and a Get the occupancy bitset answers does not count.
  uint64_t hash_lookup_count() const { return pool_.hash_lookup_count(); }

  /// Serializes the non-zeros INCLUDING their storage layout — entries in
  /// pool-id order, each with its per-mode bucket positions — so a restored
  /// tensor walks its pool and slices in the identical order. Iteration
  /// order feeds the accumulation order of MTTKRP and slice sums, so layout
  /// fidelity is what makes restored factor trajectories bitwise equal to
  /// the uninterrupted run (durability contract).
  void SerializeTo(serial::Writer& w) const;

  /// Restores into this tensor, which must be empty and of the serialized
  /// shape. Rebuilds pool order, hash index, and bucket layout exactly.
  /// Corrupt input (out-of-bounds coordinates, duplicate cells, inconsistent
  /// bucket positions) fails with kDataLoss, leaving the tensor
  /// unspecified-but-safe.
  Status RestoreFrom(serial::Reader& r);

 private:
  void InsertIntoBuckets(uint32_t id);
  void RemoveFromBuckets(uint32_t id);
  void EraseEntry(uint32_t id);

  // Row-major offset of a cell (the last mode fastest).
  uint64_t CellOffset(const ModeIndex& index) const {
    uint64_t offset = 0;
    for (int m = 0; m < index.size(); ++m) {
      offset += static_cast<uint64_t>(index[m]) * cell_stride_[m];
    }
    return offset;
  }
  bool Occupied(uint64_t offset) const {
    return (occupancy_[offset >> 6] >> (offset & 63)) & 1u;
  }
  // Set/clear a cell's bit; no-ops without a bitset.
  void MarkOccupied(const ModeIndex& index, bool occupied);

  std::vector<int64_t> dims_;
  // Bit c of occupancy_ is set while the cell at offset c is stored; empty
  // until TrackOccupancy, and for grids past kOccupancyCap cells.
  std::vector<uint64_t> occupancy_;
  std::array<uint64_t, kMaxTensorModes> cell_stride_{};
  EntryPool pool_;
  // buckets_[m][i] lists pool ids of non-zeros with m-th index i.
  std::vector<std::vector<std::vector<uint32_t>>> buckets_;
};

}  // namespace sns

#endif  // SLICENSTITCH_TENSOR_SPARSE_TENSOR_H_
