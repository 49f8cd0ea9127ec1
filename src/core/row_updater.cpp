#include "core/row_updater.h"

#include <algorithm>
#include <limits>

#include "linalg/rank_dispatch.h"
#include "tensor/mttkrp.h"

namespace sns {

RowUpdater::RowUpdater(const ContinuousCpdOptions& options,
                       const LossFunction* loss)
    : name_(VariantName(options.variant)),
      sampled_(options.variant == SnsVariant::kRnd ||
               options.variant == SnsVariant::kRndPlus),
      clipped_(options.variant == SnsVariant::kVecPlus ||
               options.variant == SnsVariant::kRndPlus),
      sample_threshold_(sampled_ ? options.sample_threshold : 0),
      clip_min_(-std::numeric_limits<double>::infinity()),
      clip_max_(std::numeric_limits<double>::infinity()),
      rng_(options.seed + 1),
      loss_(loss) {
  SNS_CHECK(options.variant != SnsVariant::kMat);
  if (sampled_) SNS_CHECK(sample_threshold_ >= 1);
  if (clipped_) {
    SNS_CHECK(options.clip_bound > 0.0);
    clip_min_ = options.nonnegative_factors ? 0.0 : -options.clip_bound;
    clip_max_ = options.clip_bound;
  }
}

void RowUpdater::OnEvent(const SparseTensor& window, const WindowDelta& delta,
                         CpdState& state) {
  if (delta.cells.empty()) return;  // Zero-valued tuple.
  BeginEvent(delta, state);

  const int time_mode = state.num_modes() - 1;
  const int w_size = static_cast<int>(state.model.factor(time_mode).rows());
  const int w = delta.w;

  auto update_row = [&](int mode, int64_t row) {
    gram_cache_.ProductExcept(mode, ws_.h);
    UpdateRow(mode, row, window, delta, state, ws_);
    gram_cache_.NotifyModeChanged(mode);
  };

  // Time-mode rows first (Alg. 3 lines 3-6; 0-based indices). For a slide
  // both the slice the value left (W−w) and the one it entered (W−w−1) are
  // refreshed; arrivals touch only W−1, expiries only 0.
  if (w > 0) update_row(time_mode, w_size - w);
  if (w < w_size) update_row(time_mode, w_size - w - 1);

  // Then the i_m-th row of every non-time factor (Alg. 3 lines 7-8).
  for (int m = 0; m < time_mode; ++m) {
    update_row(m, delta.tuple.index[m]);
  }
}

void RowUpdater::UpdateRow(int mode, int64_t row, const SparseTensor& window,
                           const WindowDelta& delta, CpdState& state,
                           UpdateWorkspace& ws) {
  if (GcpUpdateRow(mode, row, window, delta, state)) {
    return;  // Non-Gaussian loss: the GCP Newton step replaces the rules.
  }
  Matrix& factor = state.model.factor(mode);
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  kr.copy(factor.Row(row), ws.old_row.data(), padded);

  // Right-hand side (the numerator of the + variants); ws.h holds
  // H(m) = HQ(m) = ∗_{n≠m} Q(n), preloaded by OnEvent.
  const int time_mode = state.num_modes() - 1;
  const bool model_approximation = !sampled_ && mode == time_mode;
  if (model_approximation) {
    // Eq. 9: ΔX_(M)(row,:) K(M) — the matricized delta row has at most one
    // non-zero, the delta cell living in this slice, and its K(M) row is the
    // Hadamard of the non-time factor rows. Eq. 22 adds the e-term
    // e_k = Σ_r b_{i r} (∗_{n≠M} Q(n))(r, k) = (B row) · HQ(:,k): time rows
    // are updated first within an event, so U(n) = Q(n) for all n ≠ M.
    if (clipped_) {
      RowTimesMatrixPadded(ws.old_row.data(), ws.h, ws.rhs.data());
    } else {
      kr.fill(ws.rhs.data(), 0.0, padded);
    }
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index[time_mode] != row) continue;
      HadamardRowProduct(state.model.factors(), cell.index, time_mode,
                         ws.had.data());
      kr.axpy(cell.delta, ws.had.data(), ws.rhs.data(), padded);
    }
  } else if (sampled_ && window.Degree(mode, row) > sample_threshold_) {
    // Sampled rule (Alg. 4 lines 11-14 → Eq. 16; Alg. 5 lines 9-11, 14 →
    // Eq. 23).
    SampledRowRhs(mode, row, window, delta, state, ws);
  } else {
    // Exact rule (Eq. 12 / Eq. 21): the window already contains the delta,
    // so the row MTTKRP (X + ΔX)_(m)(row,:) K(m) is the full data term.
    MttkrpRow(window, state.model.factors(), mode, row, ws.rhs.data(),
              ws.had.data());
  }

  if (clipped_) {
    CoordinateDescentRow(factor.Row(row), state.rank(), ws.h, ws.rhs.data(),
                         clip_min_, clip_max_);
  } else {
    ws.solver.Factorize(ws.h);
    ws.solver.Solve(ws.rhs.data(), ws.solution.data());
    if (model_approximation) {
      // Eq. 9: A(M)(row,:) += ΔX_(M)(row,:) K(M) H(M)†.
      kr.axpy(1.0, ws.solution.data(), factor.Row(row), padded);
    } else {
      kr.copy(ws.solution.data(), factor.Row(row), padded);
    }
  }
  CommitRow(mode, row, ws.old_row.data(), state);  // Eqs. 13, 17, 24-26.
}

void CoordinateDescentRow(double* row, int64_t rank, const Matrix& hq,
                          const double* numerator, double clip_min,
                          double clip_max) {
  const RankKernelTable& kr = GetRankKernelTable(hq.stride());
  for (int64_t k = 0; k < rank; ++k) {
    const double c_k = hq(k, k);
    if (!(c_k > 1e-300)) continue;  // Dead component: leave the entry.
    // d_k = Σ_{r≠k} row[r]·HQ(r,k) against the live (partially updated)
    // row. HQ is a Hadamard product of symmetric Grams, so HQ(r,k) =
    // HQ(k,r) bitwise — read row k instead of column k for contiguous
    // access. The dot runs to the padded bound (zero lanes on both sides).
    double d_k = kr.dot(row, hq.Row(k), hq.stride());
    d_k -= row[k] * c_k;
    double value = (numerator[k] - d_k) / c_k;
    // Clipping (Alg. 5 line 5): projection onto [clip_min, clip_max] never
    // increases the convex per-entry objective.
    if (value > clip_max) {
      value = clip_max;
    } else if (value < clip_min) {
      value = clip_min;
    }
    row[k] = value;
  }
}

void RowUpdater::BeginEvent(const WindowDelta& delta, const CpdState& state) {
  time_mode_ = state.num_modes() - 1;
  snap_rank_ = state.rank();
  snap_stride_ = PaddedRank(snap_rank_);
  // The sample buffer holds θ plus the ≤2 delta cells a tiny-slice
  // enumeration may add, keeping the sampled path allocation-free.
  ws_.Prepare(state.num_modes(), snap_rank_,
              sampled_ ? sample_threshold_ + 4 : 0);
  gram_cache_.BeginEvent(state.grams);
  // No-ops (and allocation-free) once sized for this shape.
  snapshot_values_.Resize((kMaxTensorModes + 2) * snap_stride_);
  if (sampled_) {
    delta_values_.Resize(2 * (kMaxTensorModes + 2) * snap_stride_);
  }
  num_gram_deltas_ = 0;
  auto copy_row = [&](int mode, int64_t row, int segment) {
    // Full padded stride: the factor row's zero padding lanes come along,
    // keeping each snapshot segment a valid padded row.
    const double* data = state.model.factor(mode).Row(row);
    ws_.kernels->copy(data, snapshot_values_.data() + segment * snap_stride_,
                      snap_stride_);
  };
  // Time-mode rows, deduplicated: a delta may reference the same time slice
  // more than once, and PrevRow must see exactly one snapshot per row. The
  // inline storage assumes at most TWO distinct time rows per delta (the
  // two slices a slide touches) — a delta spanning more would silently
  // lose its third snapshot, so fail loudly instead.
  num_time_snaps_ = 0;
  for (const DeltaCell& cell : delta.cells) {
    const int64_t row = cell.index[time_mode_];
    bool seen = false;
    for (int t = 0; t < num_time_snaps_; ++t) {
      if (time_snap_row_[static_cast<size_t>(t)] == row) seen = true;
    }
    if (seen) continue;
    SNS_DCHECK(num_time_snaps_ < 2);
    if (num_time_snaps_ >= 2) continue;
    time_snap_row_[static_cast<size_t>(num_time_snaps_)] = row;
    copy_row(time_mode_, row, kMaxTensorModes + num_time_snaps_);
    ++num_time_snaps_;
  }
  // One snapshot per non-time mode, indexed by mode.
  for (int m = 0; m < time_mode_; ++m) {
    mode_snap_row_[static_cast<size_t>(m)] = delta.tuple.index[m];
    copy_row(m, delta.tuple.index[m], m);
  }
}

bool RowUpdater::GcpUpdateRow(int mode, int64_t row,
                              const SparseTensor& window,
                              const WindowDelta& delta, CpdState& state) {
  if (loss_ == nullptr || loss_->kind() == LossKind::kGaussian) return false;
  if (sampled_ && window.Degree(mode, row) > sample_threshold_) {
    // θ-sampled restriction: uniformly drawn slice cells (zero cells
    // included — their ℓ(0, θ) terms pull spurious model mass down; delta
    // cells excluded by the sampler) plus the event's delta cells at their
    // live window values.
    SampleSliceCellsInto(window, mode, row, sample_threshold_, delta, rng_,
                         gcp_ws_.cells);
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index[mode] != row) continue;
      gcp_ws_.cells.push_back({cell.index, window.Get(cell.index)});
    }
    GcpNewtonRowUpdate(state, mode, row, *loss_, gcp_ws_.cells, clip_min_,
                       clip_max_, gcp_ws_);
  } else {
    GcpNewtonRowUpdateOnSlice(window, state, mode, row, *loss_, clip_min_,
                              clip_max_, gcp_ws_);
  }
  // Commit unconditionally: gcp_ws_.old_row holds the pre-update row either
  // way (GcpNewtonRowUpdate snapshots before deciding), and the Gram /
  // prev-Gram bookkeeping degenerates gracefully when the row is unchanged.
  CommitRow(mode, row, gcp_ws_.old_row.data(), state);
  return true;
}

const double* RowUpdater::PrevRow(int mode, int64_t row,
                                  const CpdState& state) const {
  if (mode == time_mode_) {
    for (int t = 0; t < num_time_snaps_; ++t) {
      if (time_snap_row_[static_cast<size_t>(t)] == row) {
        return snapshot_values_.data() + (kMaxTensorModes + t) * snap_stride_;
      }
    }
  } else if (mode_snap_row_[static_cast<size_t>(mode)] == row) {
    return snapshot_values_.data() + mode * snap_stride_;
  }
  return state.model.factor(mode).Row(row);
}

void RowUpdater::CommitRow(int mode, int64_t row, const double* old_row,
                           CpdState& state) {
  const double* new_row = state.model.factor(mode).Row(row);
  ApplyGramRowUpdate(state.grams[static_cast<size_t>(mode)], old_row, new_row);
  if (sampled_) {
    // Record the rank-1 correction U(mode) = Q(mode) + (p−a)'a. old_row is
    // also the event-start (prev) row p: rows update once per event. Both
    // segments span the full padded stride (padding: 0 − 0 = 0).
    SNS_CHECK(num_gram_deltas_ < static_cast<int>(delta_mode_.size()));
    double* diff = delta_values_.data() + 2 * num_gram_deltas_ * snap_stride_;
    double* saved_new = diff + snap_stride_;
    for (int64_t r = 0; r < snap_stride_; ++r) {
      diff[r] = old_row[r] - new_row[r];
      saved_new[r] = new_row[r];
    }
    delta_mode_[static_cast<size_t>(num_gram_deltas_)] = mode;
    ++num_gram_deltas_;
  }
}

void RowUpdater::SampledRowRhs(int mode, int64_t row,
                               const SparseTensor& window,
                               const WindowDelta& delta, const CpdState& state,
                               UpdateWorkspace& ws) {
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  double* rhs = ws.rhs.data();

  // First term: A(m)(row,:)·H_prev, H_prev = ∗_{n≠m} U(n).
  PrevGramETerm(state, mode, ws.old_row.data(), ws);

  // Residual corrections x̄_J = x_J − x̃_J at θ cells sampled uniformly from
  // the slice grid (zero cells included — they pull spurious model mass
  // down; delta cells excluded per footnote 2), staged a panel at a time
  // and accumulated in cell order.
  SampleSliceCellsInto(window, mode, row, sample_threshold_, delta, rng_,
                       ws.samples);
  const size_t capacity = static_cast<size_t>(ws.sample_residual.size());
  SNS_DCHECK(capacity > 0);
  for (size_t begin = 0; begin < ws.samples.size(); begin += capacity) {
    const size_t end = std::min(ws.samples.size(), begin + capacity);
    StageSamples(state, mode, row, begin, end, ws);
    for (size_t c = 0; c < end - begin; ++c) {
      kr.axpy(ws.sample_residual.data()[c],
              ws.sample_panel.data() + static_cast<int64_t>(c) * padded, rhs,
              padded);
    }
  }

  // ΔX term.
  for (const DeltaCell& cell : delta.cells) {
    if (cell.index[mode] != row) continue;
    HadamardRowProduct(state.model.factors(), cell.index, mode, ws.had.data());
    kr.axpy(cell.delta, ws.had.data(), rhs, padded);
  }
}

void RowUpdater::PrevGramETerm(const CpdState& state, int skip_mode,
                               const double* b, UpdateWorkspace& ws) const {
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  double* rhs = ws.rhs.data();
  double* h_row = ws.h_prev_row.data();
  double* u_row = ws.u_row.data();
  uint32_t has_delta = 0;  // Modes with a row committed this event.
  for (int k = 0; k < num_gram_deltas_; ++k) {
    has_delta |= 1u << delta_mode_[static_cast<size_t>(k)];
  }

  // rhs = Σ_i b_i·(∗_{n≠m} U(n))(i, :), skipping b_i = 0. Row i of the
  // Hadamard product is the first U(n) row copied, the others multiplied
  // in, and U(n) row i is Q(n) row i plus, per committed row of mode n, its
  // (p−a)_i·a axpy unless (p−a)_i = 0.
  kr.fill(rhs, 0.0, padded);
  for (int64_t i = 0; i < state.rank(); ++i) {
    const double b_i = b[i];
    if (b_i == 0.0) continue;
    bool first = true;
    for (int n = 0; n < state.num_modes(); ++n) {
      if (n == skip_mode) continue;
      const double* u = state.grams[static_cast<size_t>(n)].Row(i);
      if (has_delta & (1u << n)) {
        // U(n) = Q(n) + Σ_rows (p−a)'a, built in place when n comes first.
        double* dst = first ? h_row : u_row;
        kr.copy(u, dst, padded);
        for (int k = 0; k < num_gram_deltas_; ++k) {
          if (delta_mode_[static_cast<size_t>(k)] != n) continue;
          const double* diff = delta_values_.data() + 2 * k * snap_stride_;
          if (diff[i] == 0.0) continue;
          kr.axpy(diff[i], diff + snap_stride_, dst, padded);
        }
        u = dst;
      }
      if (first) {
        if (u != h_row) kr.copy(u, h_row, padded);
        first = false;
      } else {
        kr.mul_accum(h_row, u, padded);
      }
    }
    kr.axpy(b_i, h_row, rhs, padded);
  }
}

namespace {

// out = ∗ of `count` padded rows, in order: the first copied, the others
// multiplied in — the values a Hadamard accumulation started from 1.0
// yields, as 1.0·a = a.
void DirectHadamard(const double* const* rows, int count, double* out,
                    int64_t padded, const RankKernelTable& kr) {
  if (count == 1) {
    kr.copy(rows[0], out, padded);
    return;
  }
  kr.mul(rows[0], rows[1], out, padded);
  for (int k = 2; k < count; ++k) kr.mul_accum(out, rows[k], padded);
}

// Pre-event values x̃ of kLanes staged cells; rows[l][n] is cell l's
// event-start row of mode n. Each cell's sum runs over r in order with the
// product formed in mode order — the scalar Σ_r Π_n rows[n][r] — while the
// independent per-cell chains interleave. kModes = 0 reads `modes`.
template <int kLanes, int kModes>
void PrevModelValues(const double* (*rows)[kMaxTensorModes], int modes,
                     int64_t rank, double* out) {
  const int m = kModes > 0 ? kModes : modes;
  double sum[kLanes] = {};
  for (int64_t r = 0; r < rank; ++r) {
    for (int l = 0; l < kLanes; ++l) {
      double prod = rows[l][0][r];
      for (int n = 1; n < m; ++n) prod *= rows[l][n][r];
      sum[l] += prod;
    }
  }
  for (int l = 0; l < kLanes; ++l) out[l] = sum[l];
}

// Three modes, the common case, gets a compile-time product length.
template <int kLanes>
void PrevModelValues(const double* (*rows)[kMaxTensorModes], int modes,
                     int64_t rank, double* out) {
  if (modes == 3) return PrevModelValues<kLanes, 3>(rows, modes, rank, out);
  PrevModelValues<kLanes, 0>(rows, modes, rank, out);
}

}  // namespace

void RowUpdater::StageSamples(const CpdState& state, int mode, int64_t row,
                              size_t begin, size_t end,
                              UpdateWorkspace& ws) const {
  constexpr int kLanes = 4;
  const std::vector<Matrix>& factors = state.model.factors();
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  const int64_t rank = state.rank();
  const int modes = state.num_modes();
  const double* own_prev = PrevRow(mode, row, state);  // Shared by all cells.
  const SampledCell* cells = ws.samples.data();

  const double* prev[kLanes][kMaxTensorModes];
  const double* current[kMaxTensorModes];
  double x_tilde[kLanes];
  // One gather per cell: its event-start rows (for x̃) and its current
  // rows of the other modes (for the panel row), in mode order.
  auto gather = [&](size_t c, int lane) {
    const ModeIndex& index = cells[c].index;
    int k = 0;
    for (int n = 0; n < modes; ++n) {
      if (n == mode) {
        prev[lane][n] = own_prev;
        continue;
      }
      prev[lane][n] = PrevRow(n, index[n], state);
      current[k++] = factors[static_cast<size_t>(n)].Row(index[n]);
    }
    DirectHadamard(current, k, ws.sample_panel.data() +
                                   static_cast<int64_t>(c - begin) * padded,
                   padded, kr);
  };
  auto residuals = [&](size_t c, int lanes) {
    for (int l = 0; l < lanes; ++l) {
      ws.sample_residual.data()[c - begin + static_cast<size_t>(l)] =
          cells[c + static_cast<size_t>(l)].value - x_tilde[l];
    }
  };

  size_t c = begin;
  for (; c + kLanes <= end; c += kLanes) {
    for (int l = 0; l < kLanes; ++l) gather(c + static_cast<size_t>(l), l);
    PrevModelValues<kLanes>(prev, modes, rank, x_tilde);
    residuals(c, kLanes);
  }
  for (; c < end; ++c) {
    gather(c, 0);
    PrevModelValues<1>(prev, modes, rank, x_tilde);
    residuals(c, 1);
  }
}

}  // namespace sns
