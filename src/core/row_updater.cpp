#include "core/row_updater.h"

#include <algorithm>
#include <limits>

#include "linalg/rank_dispatch.h"
#include "tensor/hadamard_row.h"
#include "tensor/mttkrp.h"

namespace sns {

namespace {

// out += v·(∗ of `count` padded rows): the product of all but the last row
// staged in `scratch`, the last row fused through fma3. fma3 rounds its a·b
// before scaling, so this is bitwise the axpy of the fully staged product.
void AccumulateHadamard(double v, const double* const* rows, int count,
                        double* out, double* scratch, int64_t padded,
                        const RankKernelTable& kr) {
  if (count == 1) {
    kr.axpy(v, rows[0], out, padded);
    return;
  }
  const double* staged = rows[0];
  if (count > 2) {
    HadamardOfRows(rows, count - 1, scratch, padded, kr);
    staged = scratch;
  }
  kr.fma3(v, staged, rows[count - 1], out, padded);
}

// Cells one PrevModelValues<kModelValueCells> call evaluates side by side.
constexpr int kModelValueCells = 8;

// Pre-event model values x̃ of kLanes cells, cell l's event-start rows at
// rows[l·modes .. l·modes + modes): the product in mode order, the sum in r
// order — the per-cell loop's values, with kLanes independent chains
// interleaved so they overlap instead of serializing on one add latency.
template <int kLanes, int kModes>
void PrevModelValues(const double* const* rows, int modes, int64_t rank,
                     double* out) {
  const int m = kModes > 0 ? kModes : modes;
  double sum[kLanes] = {};
  for (int64_t r = 0; r < rank; ++r) {
    for (int l = 0; l < kLanes; ++l) {
      const double* const* cell = rows + l * m;
      double prod = cell[0][r];
      for (int n = 1; n < m; ++n) prod *= cell[n][r];
      sum[l] += prod;
    }
  }
  for (int l = 0; l < kLanes; ++l) out[l] = sum[l];
}

template <int kLanes>
void PrevModelValues(const double* const* rows, int modes, int64_t rank,
                     double* out) {
  // Three modes, the common case, gets a compile-time product length.
  if (modes == 3) return PrevModelValues<kLanes, 3>(rows, modes, rank, out);
  PrevModelValues<kLanes, 0>(rows, modes, rank, out);
}

// The most cells a slice holds: the largest product of all mode sizes but
// one, saturated below INT64_MAX − 4.
int64_t LargestSliceGrid(const CpdState& state) {
  constexpr int64_t kCap = std::numeric_limits<int64_t>::max() - 4;
  int64_t largest = 0;
  for (int m = 0; m < state.num_modes(); ++m) {
    int64_t grid = 1;
    for (int n = 0; n < state.num_modes(); ++n) {
      if (n == m) continue;
      if (__builtin_mul_overflow(grid, state.model.factor(n).rows(), &grid) ||
          grid > kCap) {
        grid = kCap;
        break;
      }
    }
    largest = std::max(largest, grid);
  }
  return largest;
}

}  // namespace

RowUpdater::RowUpdater(const ContinuousCpdOptions& options,
                       const LossFunction* loss)
    : name_(VariantName(options.variant)),
      sampled_(options.variant == SnsVariant::kRnd ||
               options.variant == SnsVariant::kRndPlus),
      clipped_(options.variant == SnsVariant::kVecPlus ||
               options.variant == SnsVariant::kRndPlus),
      gaussian_(loss == nullptr || loss->kind() == LossKind::kGaussian),
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

  // The GCP Newton step solves against its own curvature, never H(m).
  auto update_row = [&](int mode, int64_t row) {
    if (gaussian_) ws_.h = &gram_cache_.ProductExcept(mode);
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

  // *ws.h is H(m) = HQ(m) = ∗_{n≠m} Q(n), set by OnEvent. The unclipped
  // rules factorize it first. When the maintained Grams have drifted from
  // A'A (Eq. 13 cancels once rows grow large) they are resynced from the
  // factors, and the retry takes the ridge if H is genuinely singular.
  // At most once per event: the few rows committed after a resync add no
  // drift that a second O(Σ N_m R²) recompute could remove, and a
  // genuinely singular H (a dead or duplicated component) would otherwise
  // pay it on every row. U(n) = Q(n) + Σ (p−a)'a holds for the resynced Q
  // too, so the sampled e-term below needs no further repair.
  if (!clipped_ && !ws.solver.Factorize(*ws.h) && !grams_resynced_) {
    grams_resynced_ = true;
    state.RecomputeGrams();
    gram_cache_.BeginEvent(state.grams);
    ws.h = &gram_cache_.ProductExcept(mode);
    ws.solver.Factorize(*ws.h);
  }

  // Right-hand side (the numerator of the + variants).
  const Matrix& h = *ws.h;
  const int time_mode = state.num_modes() - 1;
  const bool model_approximation = !sampled_ && mode == time_mode;
  if (model_approximation) {
    // Eq. 9: ΔX_(M)(row,:) K(M) — the matricized delta row has at most one
    // non-zero, the delta cell living in this slice, and its K(M) row is the
    // Hadamard of the non-time factor rows. Eq. 22 adds the e-term
    // e_k = Σ_r b_{i r} (∗_{n≠M} Q(n))(r, k) = (B row) · HQ(:,k): time rows
    // are updated first within an event, so U(n) = Q(n) for all n ≠ M.
    if (clipped_) {
      RowTimesMatrixPadded(ws.old_row.data(), h, ws.rhs.data());
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
    CoordinateDescentRow(factor.Row(row), state.rank(), h, ws.rhs.data(),
                         clip_min_, clip_max_);
  } else {
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
  GetRankKernelTable(hq.stride())
      .coordinate_descent(row, rank, hq.Row(0), numerator, clip_min, clip_max,
                          hq.stride());
}

void RowUpdater::BeginEvent(const WindowDelta& delta, const CpdState& state) {
  time_mode_ = state.num_modes() - 1;
  snap_rank_ = state.rank();
  snap_stride_ = PaddedRank(snap_rank_);
  // The sample buffer holds θ plus the ≤2 delta cells a tiny-slice
  // enumeration may add, keeping the sampled path allocation-free. A slice
  // is sampled only when its degree exceeds θ, so no sample outgrows the
  // largest slice grid, and a θ past it reserves only the grid.
  const int64_t sample_capacity =
      sampled_ ? std::min(sample_threshold_, LargestSliceGrid(state)) + 4 : 0;
  ws_.Prepare(state.num_modes(), snap_rank_, sample_capacity);
  gram_cache_.BeginEvent(state.grams);
  // No-ops (and allocation-free) once sized for this shape.
  snapshot_values_.Resize((kMaxTensorModes + 2) * snap_stride_);
  if (sampled_) {
    delta_values_.Resize(2 * (kMaxTensorModes + 2) * snap_stride_);
  }
  num_gram_deltas_ = 0;
  grams_resynced_ = false;
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
  if (gaussian_) return false;
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
  // First term: A(m)(row,:)·H_prev, H_prev = ∗_{n≠m} U(n).
  PrevGramETerm(state, mode, ws.old_row.data(), ws);

  // Residual corrections x̄_J = x_J − x̃_J at θ cells sampled uniformly from
  // the slice grid (zero cells included — they pull spurious model mass
  // down; delta cells excluded per footnote 2), accumulated in cell order.
  SampleSliceCellsInto(window, mode, row, sample_threshold_, delta, rng_,
                       ws.samples);
  SampleCorrections(state, mode, row, ws);

  // ΔX term.
  const std::vector<Matrix>& factors = state.model.factors();
  for (const DeltaCell& cell : delta.cells) {
    if (cell.index[mode] != row) continue;
    const double* rows[kMaxTensorModes] = {};
    int count = 0;
    for (int n = 0; n < state.num_modes(); ++n) {
      if (n == mode) continue;
      rows[count++] = factors[static_cast<size_t>(n)].Row(cell.index[n]);
    }
    AccumulateHadamard(cell.delta, rows, count, ws.rhs.data(), ws.had.data(),
                       ws.padded_rank, *ws.kernels);
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

void RowUpdater::SampleCorrections(const CpdState& state, int mode,
                                   int64_t row, UpdateWorkspace& ws) const {
  const RankKernelTable& kr = *ws.kernels;
  const int modes = state.num_modes();
  const SampledCell* cells = ws.samples.data();
  const size_t count = ws.samples.size();

  // PrevRow, resolved per mode once: a cell's event-start row is its live
  // factor row unless that row is one of the (at most two) snapshots of
  // its mode. Own-mode rows all share the row being updated. Factor rows
  // and snapshots share the stride snap_stride_.
  const double* base[kMaxTensorModes];
  int64_t snap_row[kMaxTensorModes][2];
  const double* snap_ptr[kMaxTensorModes][2];
  for (int n = 0; n < modes; ++n) {
    base[n] = state.model.factor(n).Row(0);
    const bool time = n == time_mode_;
    for (int t = 0; t < 2; ++t) {
      int64_t r = -1;  // No snapshot.
      if (time && t < num_time_snaps_) {
        r = time_snap_row_[static_cast<size_t>(t)];
      } else if (!time && t == 0) {
        r = mode_snap_row_[static_cast<size_t>(n)];
      }
      snap_row[n][t] = r;
      snap_ptr[n][t] = r < 0 ? nullptr : PrevRow(n, r, state);
    }
  }
  const double* own_prev = PrevRow(mode, row, state);

  // A batch at a time: gather each cell's event-start rows (for x̃) and
  // live rows of the other modes (for h_J), evaluate x̃, then accumulate.
  const double* prev[kModelValueCells * kMaxTensorModes];
  const double* live[kModelValueCells][kMaxTensorModes] = {};
  double x_tilde[kModelValueCells];
  for (size_t begin = 0; begin < count; begin += kModelValueCells) {
    const int used =
        static_cast<int>(std::min(count - begin, size_t{kModelValueCells}));
    for (int l = 0; l < used; ++l) {
      const ModeIndex& index = cells[begin + static_cast<size_t>(l)].index;
      const double** cell_prev = prev + l * modes;
      int k = 0;
      for (int n = 0; n < modes; ++n) {
        if (n == mode) {
          cell_prev[n] = own_prev;
          continue;
        }
        const int64_t i = index[n];
        const double* p = base[n] + i * snap_stride_;
        live[l][k++] = p;
        if (i == snap_row[n][0]) p = snap_ptr[n][0];
        if (i == snap_row[n][1]) p = snap_ptr[n][1];
        cell_prev[n] = p;
      }
    }
    if (used == kModelValueCells) {
      PrevModelValues<kModelValueCells>(prev, modes, state.rank(), x_tilde);
    } else {
      for (int l = 0; l < used; ++l) {
        PrevModelValues<1>(prev + l * modes, modes, state.rank(), x_tilde + l);
      }
    }
    for (int l = 0; l < used; ++l) {
      const double residual =
          cells[begin + static_cast<size_t>(l)].value - x_tilde[l];
      AccumulateHadamard(residual, live[l], modes - 1, ws.rhs.data(),
                         ws.had.data(), ws.padded_rank, kr);
    }
  }
}

}  // namespace sns
