#include "core/update_workspace.h"

namespace sns {

void UpdateWorkspace::Prepare(int num_modes, int64_t rank,
                              int64_t sample_capacity) {
  if (num_modes == num_modes_ && rank == rank_ &&
      sample_capacity == sample_capacity_) {
    return;
  }
  num_modes_ = num_modes;
  rank_ = rank;
  sample_capacity_ = sample_capacity;

  padded_rank = PaddedRank(rank);
  kernels = &GetRankKernelTable(padded_rank);

  old_row.Assign(rank, 0.0);
  rhs.Assign(rank, 0.0);
  solution.Assign(rank, 0.0);
  had.Assign(rank, 0.0);
  samples.clear();
  samples.reserve(static_cast<size_t>(sample_capacity));
  const int64_t staged = sample_capacity > 0 ? rank : 0;
  h_prev_row.Assign(staged, 0.0);
  u_row.Assign(staged, 0.0);
}

}  // namespace sns
