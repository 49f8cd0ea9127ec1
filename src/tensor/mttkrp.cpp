#include "tensor/mttkrp.h"

#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "tensor/hadamard_row.h"

namespace sns {
namespace {

// The two modes of a 3-mode tensor other than `mode`, in ascending order —
// the common case gets a fused single-pass kernel below. The fused product
// v·(r_a[r]·r_b[r]) groups exactly like the generic Hadamard accumulation
// (1·r_a is exact), so both paths are bitwise identical per tier.
inline void OtherTwoModes(int mode, int* a, int* b) {
  *a = mode == 0 ? 1 : 0;
  *b = mode == 2 ? 1 : 2;
}

}  // namespace

void HadamardRowProduct(const std::vector<Matrix>& factors,
                        const ModeIndex& index, int skip_mode, double* out) {
  HadamardRow(factors, index, skip_mode, out,
              GetRankKernelTable(factors[0].stride()));
}

Matrix Mttkrp(const SparseTensor& x, const std::vector<Matrix>& factors,
              int mode) {
  const int64_t rank = factors[0].cols();
  Matrix out(x.dim(mode), rank);
  AlignedVector had(rank);
  MttkrpInto(x, factors, mode, out, had.data());
  return out;
}

void MttkrpInto(const SparseTensor& x, const std::vector<Matrix>& factors,
                int mode, Matrix& out, double* had) {
  const int64_t rank = factors[0].cols();
  const int64_t padded = factors[0].stride();
  const RankKernelTable& kr = GetRankKernelTable(padded);
  SNS_CHECK(out.rows() == x.dim(mode) && out.cols() == rank);
  out.SetZero();
  if (factors.size() == 3) {
    int a, b;
    OtherTwoModes(mode, &a, &b);
    const Matrix& fa = factors[static_cast<size_t>(a)];
    const Matrix& fb = factors[static_cast<size_t>(b)];
    x.ForEachNonzero([&](const ModeIndex& index, double value) {
      kr.fma3(value, fa.Row(index[a]), fb.Row(index[b]), out.Row(index[mode]),
              padded);
    });
    return;
  }
  x.ForEachNonzero([&](const ModeIndex& index, double value) {
    HadamardRow(factors, index, mode, had, kr);
    kr.axpy(value, had, out.Row(index[mode]), padded);
  });
}

void MttkrpRow(const SparseTensor& x, const std::vector<Matrix>& factors,
               int mode, int64_t row, double* out) {
  AlignedVector had(factors[0].cols());
  MttkrpRow(x, factors, mode, row, out, had.data());
}

void MttkrpRow(const SparseTensor& x, const std::vector<Matrix>& factors,
               int mode, int64_t row, double* out, double* had) {
  const int64_t padded = factors[0].stride();
  const RankKernelTable& kr = GetRankKernelTable(padded);
  kr.fill(out, 0.0, padded);
  if (factors.size() == 3) {
    int a, b;
    OtherTwoModes(mode, &a, &b);
    const Matrix& fa = factors[static_cast<size_t>(a)];
    const Matrix& fb = factors[static_cast<size_t>(b)];
    for (const SparseTensor::SliceEntry entry : x.Slice(mode, row)) {
      kr.fma3(entry.value, fa.Row(entry.coords[a]), fb.Row(entry.coords[b]),
              out, padded);
    }
    return;
  }
  for (const SparseTensor::SliceEntry entry : x.Slice(mode, row)) {
    HadamardRow(factors, entry.coords, mode, had, kr);
    kr.axpy(entry.value, had, out, padded);
  }
}

Matrix HadamardOfGramsExcept(const std::vector<Matrix>& grams, int skip_mode) {
  SNS_CHECK(!grams.empty());
  const int64_t rank = grams[0].rows();
  Matrix h(rank, rank);
  h.Fill(1.0);
  for (size_t m = 0; m < grams.size(); ++m) {
    if (static_cast<int>(m) == skip_mode) continue;
    h = Hadamard(h, grams[m]);
  }
  return h;
}

}  // namespace sns
