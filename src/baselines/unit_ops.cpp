#include "baselines/unit_ops.h"

#include <algorithm>

#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"

namespace sns {

std::vector<double> UnitTimeRowRhs(const SparseTensor& unit,
                                   const std::vector<Matrix>& factors) {
  const int modes = unit.num_modes();  // M−1 non-time modes.
  const int64_t rank = factors[0].cols();
  const int64_t padded = factors[0].stride();
  std::vector<double> rhs(static_cast<size_t>(padded), 0.0);
  AlignedVector had(rank);
  DispatchPaddedRank(padded, [&](auto tag) {
    constexpr int64_t P = decltype(tag)::value;
    unit.ForEachNonzero([&](const ModeIndex& index, double value) {
      std::fill(had.begin(), had.end(), 1.0);  // Padding lanes stay 0.
      for (int m = 0; m < modes; ++m) {
        VecMulAccum<P>(had.data(),
                       factors[static_cast<size_t>(m)].Row(index[m]), padded);
      }
      VecAxpy<P>(value, had.data(), rhs.data(), padded);
    });
  });
  rhs.resize(static_cast<size_t>(rank));
  return rhs;
}

void AccumulateUnitMttkrp(const SparseTensor& unit,
                          const std::vector<Matrix>& factors,
                          const double* time_row, int mode, double sign,
                          Matrix& p) {
  const int modes = unit.num_modes();
  const int64_t rank = p.cols();
  const int64_t padded = p.stride();
  // One allocation for both scratch rows: the staged padded copy of
  // time_row (which only carries `rank` values in caller buffers) and the
  // per-entry Hadamard accumulator.
  AlignedVector scratch(2 * padded);
  double* time_padded = scratch.data();
  double* had = scratch.data() + padded;
  std::copy(time_row, time_row + rank, time_padded);
  DispatchPaddedRank(padded, [&](auto tag) {
    constexpr int64_t P = decltype(tag)::value;
    unit.ForEachNonzero([&](const ModeIndex& index, double value) {
      VecCopy<P>(time_padded, had, padded);
      for (int m = 0; m < modes; ++m) {
        if (m == mode) continue;
        VecMulAccum<P>(had, factors[static_cast<size_t>(m)].Row(index[m]),
                       padded);
      }
      VecAxpy<P>(sign * value, had, p.Row(index[mode]), padded);
    });
  });
}

std::vector<SparseTensor> SplitWindowIntoUnits(const SparseTensor& window) {
  const int time_mode = window.num_modes() - 1;
  const int64_t w_size = window.dim(time_mode);
  std::vector<int64_t> unit_dims(window.dims().begin(),
                                 window.dims().end() - 1);
  std::vector<SparseTensor> units;
  units.reserve(static_cast<size_t>(w_size));
  const int64_t nnz_hint = window.nnz() / w_size + 1;
  for (int64_t w = 0; w < w_size; ++w) {
    units.emplace_back(unit_dims, nnz_hint);
  }
  window.ForEachNonzero([&](const ModeIndex& index, double value) {
    ModeIndex unit_index;
    for (int m = 0; m < time_mode; ++m) unit_index.PushBack(index[m]);
    units[static_cast<size_t>(index[time_mode])].Add(unit_index, value);
  });
  return units;
}

}  // namespace sns
