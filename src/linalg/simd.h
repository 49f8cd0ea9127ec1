// SIMD-ready memory layout for the dense kernel layer.
//
// Every rank-R inner loop in SliceNStitch (Hadamard row products, MTTKRP
// rows, Gram rank-1 updates, triangular solves — the Theorem 4 cost terms)
// runs over buffers laid out by this header:
//   - allocations are 64-byte aligned (cache line / AVX-512 friendly),
//   - logical lengths are padded up to a multiple of kRankPadDoubles
//     (4 doubles = one 256-bit vector), and
//   - the padding lanes hold EXACTLY 0.0 at all times,
// so kernels can run tail-free to the padded bound: products and sums over
// the padding lanes are products and sums of zeros. The invariant is
// regression-guarded by tests/kernel_dispatch_test.cpp.

#ifndef SLICENSTITCH_LINALG_SIMD_H_
#define SLICENSTITCH_LINALG_SIMD_H_

#include <algorithm>
#include <cstdint>
#include <new>

#include "common/check.h"

#if defined(__GNUC__) || defined(__clang__)
#define SNS_RESTRICT __restrict__
#else
#define SNS_RESTRICT
#endif

namespace sns {

/// Alignment of every dense-kernel allocation, in bytes.
inline constexpr int64_t kSimdByteAlignment = 64;

/// Rank padding quantum, in doubles (4 doubles = 32 bytes = one AVX2 lane).
inline constexpr int64_t kRankPadDoubles = 4;

/// `n` rounded up to a multiple of kRankPadDoubles — the leading stride of a
/// padded rank-n row.
constexpr int64_t PaddedRank(int64_t n) {
  return (n + kRankPadDoubles - 1) / kRankPadDoubles * kRankPadDoubles;
}

/// 64-byte-aligned double buffer with a padded capacity and a zero-padding
/// invariant: the buffer holds PaddedRank(size()) elements, and the lanes
/// past size() are zero on allocation and must be kept zero by callers (the
/// padded kernels do so automatically — they only ever write products/sums
/// of the zero lanes there).
///
/// The scratch-row counterpart of Matrix, and the buffer every rank-R
/// kernel operates on: UpdateWorkspace / AlsWorkspace rank-length buffers
/// live here so the padded kernels may read and write the full stride.
class AlignedVector {
 public:
  AlignedVector() = default;
  explicit AlignedVector(int64_t n, double value = 0.0) { Assign(n, value); }
  ~AlignedVector() { Release(); }

  AlignedVector(const AlignedVector& other) { *this = other; }
  AlignedVector& operator=(const AlignedVector& other) {
    if (this == &other) return *this;
    if (padded_ != other.padded_) {
      Release();
      data_ = Allocate(other.padded_);
      padded_ = other.padded_;
    }
    size_ = other.size_;
    if (padded_ > 0) std::copy(other.data_, other.data_ + padded_, data_);
    return *this;
  }

  AlignedVector(AlignedVector&& other) noexcept { Swap(other); }
  AlignedVector& operator=(AlignedVector&& other) noexcept {
    if (this != &other) {
      Release();
      Swap(other);
    }
    return *this;
  }

  /// Logical length.
  int64_t size() const { return size_; }
  /// Allocated length: PaddedRank(size()).
  int64_t padded_size() const { return padded_; }

  double* data() { return data_; }
  const double* data() const { return data_; }
  double* begin() { return data_; }
  double* end() { return data_ + size_; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + size_; }

  double& operator[](int64_t i) {
    SNS_DCHECK(i >= 0 && i < size_);
    return data_[i];
  }
  double operator[](int64_t i) const {
    SNS_DCHECK(i >= 0 && i < size_);
    return data_[i];
  }

  /// Sets the logical length to n. Allocation-free (contents kept) when
  /// the padded capacity already matches; otherwise reallocates and
  /// zero-initializes everything. A shrink zeroes the lanes leaving the
  /// logical range so the padding invariant holds for the new length.
  void Resize(int64_t n) {
    SNS_CHECK(n >= 0);
    const int64_t padded = PaddedRank(n);
    if (padded == padded_) {
      if (n < size_) std::fill(data_ + n, data_ + size_, 0.0);
      size_ = n;
      return;
    }
    Release();
    data_ = Allocate(padded);
    padded_ = padded;
    size_ = n;
  }

  /// Resizes to n and sets every logical lane to `value` (padding to zero).
  void Assign(int64_t n, double value) {
    Resize(n);
    std::fill(data_, data_ + size_, value);
    std::fill(data_ + size_, data_ + padded_, 0.0);
  }

  /// True when every padding lane holds exactly zero (test hook for the
  /// zero-padding invariant).
  bool PaddingIsZero() const {
    for (int64_t i = size_; i < padded_; ++i) {
      if (data_[i] != 0.0) return false;
    }
    return true;
  }

 private:
  static double* Allocate(int64_t padded) {
    if (padded == 0) return nullptr;
    void* raw = ::operator new(static_cast<size_t>(padded) * sizeof(double),
                               std::align_val_t{kSimdByteAlignment});
    double* data = static_cast<double*>(raw);
    std::fill(data, data + padded, 0.0);
    return data;
  }

  void Release() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{kSimdByteAlignment});
    }
    data_ = nullptr;
    size_ = 0;
    padded_ = 0;
  }

  void Swap(AlignedVector& other) {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(padded_, other.padded_);
  }

  double* data_ = nullptr;
  int64_t size_ = 0;
  int64_t padded_ = 0;
};

}  // namespace sns

#endif  // SLICENSTITCH_LINALG_SIMD_H_
