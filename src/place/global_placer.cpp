#include "place/global_placer.hpp"

#include <algorithm>
#include "util/assert.hpp"
#include <cmath>
#include <new>
#include <span>

#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "observe/observe.hpp"
#include "telemetry/telemetry.hpp"
#include "util/arena.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"
#include "util/soa.hpp"

namespace ppacd::place {

namespace {

// Fixed grains for the parallel numeric kernels. Chunk boundaries (and thus
// floating-point combination order) depend only on these constants and the
// problem size, never on the thread count — see src/exec/exec.hpp.
constexpr std::size_t kVecGrain = 4096;   ///< CG chunks (rows, elements, dots)
constexpr std::size_t kNetGrain = 256;    ///< nets per assembly chunk
constexpr std::size_t kObjGrain = 2048;   ///< objects per density chunk
/// Density scratch cap: at most this many per-chunk bin arrays are alive.
constexpr std::size_t kMaxAreaChunks = 16;

}  // namespace

/// Sparse symmetric system assembled per direction: diagonal + off-diagonal
/// triplets over dense movable indices, with right-hand side. finalize()
/// builds a CSR row adjacency so multiply_rows() can run row-parallel: each
/// row gathers its neighbours in a fixed per-row order, so the result does not
/// depend on the thread count. reset() keeps every buffer's capacity, so one
/// instance reused across iterations assembles without allocating.
struct QuadSystem {
  std::vector<double> diag;
  std::vector<double> rhs;
  struct OffDiag {
    std::int32_t i;
    std::int32_t j;
    double w;
  };
  std::vector<OffDiag> off;
  // CSR adjacency (both directions of every off-diagonal edge).
  std::vector<std::int32_t> row_ptr;
  std::vector<std::int32_t> col;
  std::vector<double> weight;
  std::vector<std::int32_t> cursor;  ///< finalize() scratch, capacity reused

  void reset(std::size_t n) {
    diag.assign(n, 0.0);
    rhs.assign(n, 0.0);
    off.clear();
    off.reserve(n * 4);
  }

  void add_edge_movable(std::int32_t i, std::int32_t j, double w) {
    diag[static_cast<std::size_t>(i)] += w;
    diag[static_cast<std::size_t>(j)] += w;
    off.push_back({i, j, w});
  }

  void add_edge_fixed(std::int32_t i, double fixed_coord, double w) {
    diag[static_cast<std::size_t>(i)] += w;
    rhs[static_cast<std::size_t>(i)] += w * fixed_coord;
  }

  /// Builds the CSR adjacency from `off` (call once, after assembly).
  void finalize() {
    const std::size_t n = diag.size();
    row_ptr.assign(n + 1, 0);
    for (const OffDiag& e : off) {
      ++row_ptr[static_cast<std::size_t>(e.i) + 1];
      ++row_ptr[static_cast<std::size_t>(e.j) + 1];
    }
    for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];
    col.resize(static_cast<std::size_t>(row_ptr[n]));
    weight.resize(col.size());
    cursor.assign(row_ptr.begin(), row_ptr.end() - 1);
    for (const OffDiag& e : off) {
      const std::size_t si = static_cast<std::size_t>(e.i);
      const std::size_t sj = static_cast<std::size_t>(e.j);
      col[static_cast<std::size_t>(cursor[si])] = e.j;
      weight[static_cast<std::size_t>(cursor[si]++)] = e.w;
      col[static_cast<std::size_t>(cursor[sj])] = e.i;
      weight[static_cast<std::size_t>(cursor[sj]++)] = e.w;
    }
  }

  /// out[i] = (A x)[i] for rows [lo, hi). Rows are independent, so any
  /// row range gives the same bits; per-row accumulation order is fixed
  /// (diagonal first, then neighbours in CSR order). Non-aliased raw
  /// pointers keep the gather loop free of reload stalls.
  void multiply_rows(const double* PPACD_RESTRICT xv, double* PPACD_RESTRICT ov,
                     std::size_t lo, std::size_t hi) const {
    const double* PPACD_RESTRICT dg = diag.data();
    const double* PPACD_RESTRICT wt = weight.data();
    const std::int32_t* PPACD_RESTRICT rp = row_ptr.data();
    const std::int32_t* PPACD_RESTRICT cl = col.data();
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t b = static_cast<std::size_t>(rp[i]);
      const std::size_t e = static_cast<std::size_t>(rp[i + 1]);
      ov[i] = util::simd::csr_row(dg[i] * xv[i], wt + b, cl + b, xv, e - b);
    }
  }
};

/// Per-placer reusable buffers (pimpl behind GlobalPlacer::scratch_). One
/// instance lives as long as the placer, so the optimize loop — B2B assembly,
/// CG, density accumulation, cell shifting — allocates nothing in steady
/// state: every vector keeps its capacity and the CG vectors come from a
/// bump arena that is reset (not freed) between solves.
struct PlacerScratch {
  /// One parallel-assembly contribution (see solve_direction).
  struct AsmOp {
    std::int32_t i;
    std::int32_t j;  ///< movable partner, or -1 for a fixed edge
    double w;
    double coord;  ///< fixed coordinate when j == -1
  };

  QuadSystem system;                         ///< per-direction quadratic system
  std::vector<std::vector<AsmOp>> chunk_ops; ///< per-chunk assembly op lists
  std::vector<double> x;                     ///< CG solution vector
  util::Arena cg_arena;                      ///< CG residual/direction buffers
  std::vector<double> spread_area;           ///< per-bin area in spread()
  std::vector<double> lane_util;             ///< per-lane bin utilization rows
  std::vector<double> lane_nb;               ///< per-lane new-boundary rows
  std::vector<std::vector<double>> area_chunks; ///< accumulate_area partials
  std::vector<double> measure_area;          ///< measure_overflow() bins
  /// Per-movable footprint constants {half-width, half-height, area},
  /// gathered out of the PlaceObject structs once at construction so the
  /// density loops stream three flat columns instead of chasing the full
  /// object records every call.
  util::SoaBlock<double, 3> geom;
  /// Per-object coordinate in the direction being solved (solve_direction
  /// gathers it once per call; the B2B assembly then reads a flat array).
  std::vector<double> coords;
  /// Counting-sort buckets for spread(): movable object ids grouped by lane.
  std::vector<std::int32_t> lane_objs;
  std::vector<std::int32_t> lane_start;
  std::vector<std::int32_t> lane_fill;
  /// Per-bin movable capacity (bin area minus blockage, clamped) and its
  /// reciprocal; both constant after construction.
  std::vector<double> bin_cap;
  std::vector<double> inv_bin_cap;
};

namespace {

/// Jacobi-preconditioned conjugate gradient; solves A x = b in place. Every
/// pool region walks the same kVecGrain chunks, and each iteration needs
/// three of them (DESIGN.md §10):
///   1. mat-vec ap = A p over the chunk's rows, then the chunk's p·ap;
///   2. x/r update, Jacobi z = r / diag, then the chunk's r·z and r·r;
///   3. p = z + beta p.
/// Per-chunk partials come from util::simd::dot and fold in ascending chunk
/// order, as exec::parallel_reduce folds, so the iterate sequence is
/// bit-identical for any thread count. The work vectors and the partials
/// live in `arena`, reset (capacity kept) per call.
/// When `obs_series >= 0`, sampled relative residuals stream to the flight
/// recorder as kPlaceCg (series obs_series, index obs_index, sub cg_iter);
/// a final sub == -1 sample carries {iters_run, final_residual}.
void solve_cg(const QuadSystem& system, std::vector<double>& x, int max_iters,
              double tolerance, util::Arena& arena,
              std::int32_t obs_series = -1, std::int64_t obs_index = 0) {
  const std::size_t n = x.size();
  if (n == 0) return;
  arena.reset();
  const std::span<double> r = arena.alloc<double>(n);
  const std::span<double> z = arena.alloc<double>(n);
  const std::span<double> p = arena.alloc<double>(n);
  const std::span<double> ap = arena.alloc<double>(n);
  const std::size_t chunks = exec::detail::chunk_count_for(n, kVecGrain);
  const std::span<double> part_a = arena.alloc<double>(chunks);
  const std::span<double> part_b = arena.alloc<double>(chunks);
  const std::span<double> part_c = arena.alloc<double>(chunks);
  const double* const rhs = system.rhs.data();
  const double* const diag = system.diag.data();

  auto for_chunks = [n](const auto& body) {
    exec::parallel_for_chunks(0, n, kVecGrain, body);
  };
  auto fold = [chunks](std::span<const double> part) {
    double sum = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) sum += part[c];
    return sum;
  };

  // Setup region: r = b - A x, z = M^-1 r, p = z, with the b·b, r·z and r·r
  // partials. Elementwise kernels run per contiguous chunk through
  // util/simd.hpp: each element's result is independent, so vector lanes
  // cannot change a bit regardless of thread count or the PPACD_SIMD setting.
  for_chunks([&](std::size_t lo, std::size_t hi, std::size_t c) {
    system.multiply_rows(x.data(), ap.data(), lo, hi);
    for (std::size_t i = lo; i < hi; ++i) r[i] = rhs[i] - ap[i];
    util::simd::jacobi(z.data() + lo, r.data() + lo, diag + lo, hi - lo);
    std::copy_n(z.data() + lo, hi - lo, p.data() + lo);
    part_a[c] = util::simd::dot(rhs + lo, rhs + lo, hi - lo);
    part_b[c] = util::simd::dot(r.data() + lo, z.data() + lo, hi - lo);
    part_c[c] = util::simd::dot(r.data() + lo, r.data() + lo, hi - lo);
  });
  double b_norm = std::sqrt(fold(part_a));
  if (b_norm == 0.0) b_norm = 1.0;
  double rz = fold(part_b);
  double rr = fold(part_c);

  // One CG step, regions 1-3 above. Returns false on the defensive SPD
  // bail-out. Shared by both loops below so the instrumented variant can't
  // drift from the pristine one.
  auto step = [&]() -> bool {
    for_chunks([&](std::size_t lo, std::size_t hi, std::size_t c) {
      system.multiply_rows(p.data(), ap.data(), lo, hi);
      part_a[c] = util::simd::dot(p.data() + lo, ap.data() + lo, hi - lo);
    });
    const double p_ap = fold(part_a);
    if (p_ap <= 0.0) return false;  // matrix should be SPD; bail out
    const double alpha = rz / p_ap;
    for_chunks([&](std::size_t lo, std::size_t hi, std::size_t c) {
      // lint:allow(parallel-float-accum): element i touched once
      util::simd::cg_update(x.data() + lo, r.data() + lo, p.data() + lo,
                            ap.data() + lo, alpha, hi - lo);
      util::simd::jacobi(z.data() + lo, r.data() + lo, diag + lo, hi - lo);
      part_b[c] = util::simd::dot(r.data() + lo, z.data() + lo, hi - lo);
      part_c[c] = util::simd::dot(r.data() + lo, r.data() + lo, hi - lo);
    });
    const double rz_new = fold(part_b);
    const double beta = rz_new / rz;
    rz = rz_new;
    rr = fold(part_c);
    for_chunks([&](std::size_t lo, std::size_t hi, std::size_t) {
      util::simd::xpby(p.data() + lo, z.data() + lo, beta, hi - lo);
    });
    return true;
  };

  const bool observing = obs_series >= 0 && observe::active();
  if (!observing) {
    // Pristine hot loop: no extra live state, no calls into the recorder —
    // codegen matches the uninstrumented solver.
    for (int iter = 0; iter < max_iters; ++iter) {
      if (std::sqrt(rr) / b_norm < tolerance) break;
      if (!step()) break;
    }
    return;
  }

  // Instrumented variant: residuals land in an arena scratch log (one plain
  // store per iteration) and flush to the recorder after the loop, keeping
  // recorder calls out of the solve.
  const std::span<double> resid_log =
      arena.alloc<double>(static_cast<std::size_t>(max_iters) + 1);
  int logged = 0;
  int iters_run = 0;
  for (int iter = 0; iter < max_iters; ++iter) {
    const double residual = std::sqrt(rr) / b_norm;
    resid_log[static_cast<std::size_t>(logged++)] = residual;
    if (residual < tolerance) break;
    iters_run = iter + 1;
    if (!step()) break;
  }
  observe::Recorder& rec = observe::recorder();
  for (int i = 0; i < logged; ++i) {
    rec.record(observe::Stream::kPlaceCg, obs_series, obs_index, i,
               {resid_log[static_cast<std::size_t>(i)]});
  }
  rec.record(observe::Stream::kPlaceCg, obs_series, obs_index, -1,
             {static_cast<double>(iters_run),
              logged > 0 ? resid_log[static_cast<std::size_t>(logged - 1)] : 0.0});
}

constexpr double kMinB2bDist = 0.5;  // um; keeps B2B weights bounded

}  // namespace

GlobalPlacer::GlobalPlacer(const PlaceModel& model,
                           const GlobalPlacerOptions& options)
    : model_(&model), options_(options) {
  movable_.assign(model.objects.size(), -1);
  for (std::size_t i = 0; i < model.objects.size(); ++i) {
    const PlaceObject& obj = model.objects[i];
    if (!obj.fixed && !obj.blockage) {
      movable_[i] = static_cast<std::int32_t>(movable_objects_.size());
      movable_objects_.push_back(static_cast<std::int32_t>(i));
    }
  }

  // Spreading grid geometry and the static blockage occupancy map.
  const geom::Rect& core = model.core;
  const double bin_edge = options_.bin_rows * model.row_height_um;
  grid_nx_ = std::max(1, static_cast<int>(core.width() / bin_edge));
  grid_ny_ = std::max(1, static_cast<int>(core.height() / bin_edge));
  bin_w_ = core.width() / grid_nx_;
  bin_h_ = core.height() / grid_ny_;
  blockage_area_.assign(
      static_cast<std::size_t>(grid_nx_) * static_cast<std::size_t>(grid_ny_),
      0.0);
  for (const PlaceObject& obj : model.objects) {
    if (!obj.blockage) continue;
    const double hw = obj.width_um * 0.5;
    const double hh = obj.height_um * 0.5;
    const geom::Point& p = obj.fixed_position;
    const int x0 = std::clamp(static_cast<int>((p.x - hw - core.lx) / bin_w_), 0, grid_nx_ - 1);
    const int x1 = std::clamp(static_cast<int>((p.x + hw - core.lx) / bin_w_), 0, grid_nx_ - 1);
    const int y0 = std::clamp(static_cast<int>((p.y - hh - core.ly) / bin_h_), 0, grid_ny_ - 1);
    const int y1 = std::clamp(static_cast<int>((p.y + hh - core.ly) / bin_h_), 0, grid_ny_ - 1);
    for (int by = y0; by <= y1; ++by) {
      const double oy = std::max(0.0, std::min(p.y + hh, core.ly + (by + 1) * bin_h_) -
                                          std::max(p.y - hh, core.ly + by * bin_h_));
      for (int bx = x0; bx <= x1; ++bx) {
        const double ox = std::max(0.0, std::min(p.x + hw, core.lx + (bx + 1) * bin_w_) -
                                            std::max(p.x - hw, core.lx + bx * bin_w_));
        blockage_area_[static_cast<std::size_t>(by) *
                         static_cast<std::size_t>(grid_nx_) +
                     static_cast<std::size_t>(bx)] += ox * oy;
      }
    }
  }

  scratch_ = std::make_unique<PlacerScratch>();
  // SoA footprint columns for the density loops: same clamped values the
  // old per-object loads produced, gathered once.
  scratch_->geom.resize(movable_objects_.size());
  double* const hw_col = scratch_->geom.col(0);
  double* const hh_col = scratch_->geom.col(1);
  double* const area_col = scratch_->geom.col(2);
  for (std::size_t m = 0; m < movable_objects_.size(); ++m) {
    const PlaceObject& o =
        model.objects[static_cast<std::size_t>(movable_objects_[m])];
    hw_col[m] = std::max(o.width_um * 0.5, 1e-6);
    hh_col[m] = std::max(o.height_um * 0.5, 1e-6);
    area_col[m] = o.area_um2();
  }
  // Per-bin capacity is fixed once the blockage map is: precompute it (and
  // its reciprocal, for the utilization sweeps) instead of re-deriving it
  // per bin visit.
  scratch_->bin_cap.resize(blockage_area_.size());
  scratch_->inv_bin_cap.resize(blockage_area_.size());
  const double bin_area = bin_w_ * bin_h_;
  for (std::size_t b = 0; b < blockage_area_.size(); ++b) {
    const double cap = std::max(1e-6, bin_area - blockage_area_[b]);
    scratch_->bin_cap[b] = cap;
    scratch_->inv_bin_cap[b] = 1.0 / cap;
  }
}

GlobalPlacer::~GlobalPlacer() = default;

void GlobalPlacer::solve_direction(bool x_dir, Placement& positions,
                                   const Placement& anchor_targets,
                                   double anchor_weight,
                                   const Placement* seed_anchor) {
  const PlaceModel& model = *model_;
  const std::size_t n = movable_objects_.size();
  QuadSystem& system = scratch_->system;
  system.reset(n);
  auto coord = [x_dir](const geom::Point& p) { return x_dir ? p.x : p.y; };

  // Flat per-object coordinate column for this direction: the B2B assembly
  // below touches every net pin several times, and reading an 8-byte double
  // out of a dense column instead of half a Point costs half the bandwidth.
  // Same values as the Point loads, so the assembled system is unchanged.
  std::vector<double>& coords = scratch_->coords;
  coords.resize(model.objects.size());
  for (std::size_t i = 0; i < model.objects.size(); ++i) {
    coords[i] = x_dir ? positions[i].x : positions[i].y;
  }
  const double* PPACD_RESTRICT co = coords.data();

  // Parallel B2B assembly: each net chunk records its contributions as an
  // ordered op list; applying the lists in ascending chunk order replays the
  // serial assembly exactly (same additions, same floating-point order).
  using AsmOp = PlacerScratch::AsmOp;
  const std::size_t net_count = model.nets.size();
  std::vector<std::vector<AsmOp>>& chunk_ops = scratch_->chunk_ops;
  chunk_ops.resize(exec::detail::chunk_count_for(net_count, kNetGrain));
  exec::parallel_for_chunks(0, net_count, kNetGrain, [&](std::size_t nb,
                                                         std::size_t ne,
                                                         std::size_t chunk) {
    std::vector<AsmOp>& ops = chunk_ops[chunk];
    ops.clear();
    for (std::size_t ni = nb; ni < ne; ++ni) {
      const PlaceNet& net = model.nets[ni];
      const std::size_t k = net.objects.size();
      if (k < 2) continue;

      // Find boundary pins in this direction (first-extreme-wins, exactly
      // as the old recomputing scan: ties keep the earliest index).
      std::size_t idx_min = 0;
      std::size_t idx_max = 0;
      double c_min = co[static_cast<std::size_t>(net.objects[0])];
      double c_max = c_min;
      for (std::size_t i = 1; i < k; ++i) {
        const double c = co[static_cast<std::size_t>(net.objects[i])];
        if (c < c_min) {
          c_min = c;
          idx_min = i;
        }
        if (c > c_max) {
          c_max = c;
          idx_max = i;
        }
      }
      if (idx_min == idx_max) idx_max = (idx_min + 1) % k;

      const double base = net.weight * 2.0 / static_cast<double>(k - 1);
      auto add_pair = [&](std::size_t a, std::size_t b) {
        const std::int32_t oa = net.objects[a];
        const std::int32_t ob = net.objects[b];
        if (oa == ob) return;
        const double ca = co[static_cast<std::size_t>(oa)];
        const double cb = co[static_cast<std::size_t>(ob)];
        const double w = base / std::max(std::fabs(ca - cb), kMinB2bDist);
        const std::int32_t ma = movable_[static_cast<std::size_t>(oa)];
        const std::int32_t mb = movable_[static_cast<std::size_t>(ob)];
        if (ma >= 0 && mb >= 0) {
          ops.push_back({ma, mb, w, 0.0});
        } else if (ma >= 0) {
          ops.push_back({ma, -1, w, cb});
        } else if (mb >= 0) {
          ops.push_back({mb, -1, w, ca});
        }
      };

      for (std::size_t i = 0; i < k; ++i) {
        if (i != idx_min) add_pair(i, idx_min);
        if (i != idx_max && i != idx_min) add_pair(i, idx_max);
      }
    }
  });
  for (const std::vector<AsmOp>& ops : chunk_ops) {
    for (const AsmOp& op : ops) {
      if (op.j >= 0) {
        system.add_edge_movable(op.i, op.j, op.w);
      } else {
        system.add_edge_fixed(op.i, op.coord, op.w);
      }
    }
  }

  // Anchors: pull every movable toward its spread target; in incremental
  // mode additionally toward the seed location. Each m touches only its own
  // diagonal/rhs entry, so the loop is safely index-parallel.
  exec::parallel_for(0, n, kVecGrain, [&](std::size_t m) {
    const std::size_t obj = static_cast<std::size_t>(movable_objects_[m]);
    if (anchor_weight > 0.0) {
      system.add_edge_fixed(static_cast<std::int32_t>(m),
                            coord(anchor_targets[obj]), anchor_weight);
    }
    if (seed_anchor != nullptr && seed_weight_ > 0.0) {
      system.add_edge_fixed(static_cast<std::int32_t>(m),
                            coord((*seed_anchor)[obj]), seed_weight_);
    }
  });
  system.finalize();

  std::vector<double>& x = scratch_->x;
  x.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    x[m] = co[static_cast<std::size_t>(movable_objects_[m])];
  }
  solve_cg(system, x, options_.cg_max_iterations, options_.cg_tolerance,
           scratch_->cg_arena, obs_cg_series_[x_dir ? 0 : 1], obs_iter_);
  for (std::size_t m = 0; m < n; ++m) {
    auto& p = positions[static_cast<std::size_t>(movable_objects_[m])];
    if (x_dir) p.x = x[m];
    else p.y = x[m];
  }
}

double GlobalPlacer::spread(Placement& positions) {
  const PlaceModel& model = *model_;
  const geom::Rect& core = model.core;
  const int nx = grid_nx_;
  const int ny = grid_ny_;
  const double bw = bin_w_;
  const double bh = bin_h_;

  // Reciprocal binning — same rationale (and the same re-pin) as in
  // accumulate_area.
  const double ibw = 1.0 / bw;
  const double ibh = 1.0 / bh;
  auto bin_x = [&](double x) {
    return std::clamp(static_cast<int>((x - core.lx) * ibw), 0, nx - 1);
  };
  auto bin_y = [&](double y) {
    return std::clamp(static_cast<int>((y - core.ly) * ibh), 0, ny - 1);
  };

  // Capacity available to movables (bin area minus blockage footprints),
  // precomputed at construction together with its reciprocal.
  const double* PPACD_RESTRICT cap = scratch_->bin_cap.data();
  const double* PPACD_RESTRICT icap = scratch_->inv_bin_cap.data();
  std::vector<double>& area = scratch_->spread_area;
  area.assign(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny),
              0.0);
  // Per-lane rows for the cell-shifting sweeps below: each lane writes only
  // its own stride-separated row, so the lane-parallel loop stays race-free
  // without per-lane heap allocation.
  const std::size_t lane_cap = static_cast<std::size_t>(std::max(nx, ny));
  scratch_->lane_util.resize(lane_cap * lane_cap);
  scratch_->lane_nb.resize(lane_cap * (lane_cap + 1));
  auto recompute_area = [&]() { accumulate_area(positions, area); };
  auto compute_overflow = [&]() {
    double overfill = 0.0;
    double total = 0.0;
    for (std::size_t b = 0; b < area.size(); ++b) {
      overfill += std::max(0.0, area[b] - cap[b]);
      total += area[b];
    }
    return total > 0.0 ? overfill / total : 0.0;
  };

  recompute_area();
  const double overflow = compute_overflow();

  // FastPlace cell shifting: move bin boundaries toward equalized
  // utilization, then linearly remap cell coordinates bin-by-bin.
  constexpr double kDelta = 0.5;
  // Lanes are independent: a cell belongs to exactly one lane (its cross-axis
  // bin, which this pass never modifies) and only that lane moves it, so the
  // lane loop is safely parallel and order-free.
  auto shift_axis = [&](bool x_axis) {
    const int lanes = x_axis ? ny : nx;
    const int bins = x_axis ? nx : ny;
    const double lo = x_axis ? core.lx : core.ly;
    const double step = x_axis ? bw : bh;

    // Counting-sort the movables into their lanes up front: the per-lane
    // remap below then touches only its own cells instead of scanning the
    // whole object list once per lane (the old O(lanes x objects) sweep was
    // the placer's single hottest loop). A cell's lane is its cross-axis
    // bin, which this pass never modifies, and cell remaps are independent,
    // so grouping changes nothing but the visit pattern.
    const std::size_t n_mov = movable_objects_.size();
    std::vector<std::int32_t>& lane_objs = scratch_->lane_objs;
    std::vector<std::int32_t>& lane_start = scratch_->lane_start;
    lane_objs.resize(n_mov);
    lane_start.assign(static_cast<std::size_t>(lanes) + 1, 0);
    for (const std::int32_t obj : movable_objects_) {
      const auto& p = positions[static_cast<std::size_t>(obj)];
      const int cell_lane = x_axis ? bin_y(p.y) : bin_x(p.x);
      ++lane_start[static_cast<std::size_t>(cell_lane) + 1];
    }
    for (int l = 0; l < lanes; ++l) {
      lane_start[static_cast<std::size_t>(l) + 1] +=
          lane_start[static_cast<std::size_t>(l)];
    }
    std::vector<std::int32_t>& fill = scratch_->lane_fill;
    fill.assign(lane_start.begin(), lane_start.end() - 1);
    for (const std::int32_t obj : movable_objects_) {
      const auto& p = positions[static_cast<std::size_t>(obj)];
      const int cell_lane = x_axis ? bin_y(p.y) : bin_x(p.x);
      lane_objs[static_cast<std::size_t>(
          fill[static_cast<std::size_t>(cell_lane)]++)] = obj;
    }

    exec::parallel_for(0, static_cast<std::size_t>(lanes), 1, [&](std::size_t lane_idx) {
      const int lane = static_cast<int>(lane_idx);
      // Utilization of each bin in this lane (against blockage-reduced
      // capacity, so movables drain out of blocked bins).
      double* const util = scratch_->lane_util.data() + lane_idx * lane_cap;
      for (int b = 0; b < bins; ++b) {
        const std::size_t idx = x_axis
                                    ? static_cast<std::size_t>(lane) * static_cast<std::size_t>(nx) +
                    static_cast<std::size_t>(b)
                                    : static_cast<std::size_t>(b) * static_cast<std::size_t>(nx) +
                    static_cast<std::size_t>(lane);
        util[static_cast<std::size_t>(b)] = area[idx] * icap[idx];
      }
      // New internal boundaries.
      double* const nb = scratch_->lane_nb.data() + lane_idx * (lane_cap + 1);
      nb[0] = lo;
      nb[static_cast<std::size_t>(bins)] = lo + step * bins;
      for (int b = 0; b + 1 < bins; ++b) {
        const double ob_left = lo + step * b;          // left edge of bin b
        const double ob_right = lo + step * (b + 2);   // right edge of bin b+1
        const double u_l = util[static_cast<std::size_t>(b)];
        const double u_r = util[static_cast<std::size_t>(b) + 1];
        nb[static_cast<std::size_t>(b) + 1] =
            (ob_left * (u_r + kDelta) + ob_right * (u_l + kDelta)) /
            (u_l + u_r + 2.0 * kDelta);
      }
      for (std::size_t i = 1; i <= static_cast<std::size_t>(bins); ++i) {
        nb[i] = std::max(nb[i], nb[i - 1] + 1e-3);
      }
      // Remap cells in this lane (its counting-sort bucket).
      const std::size_t obj_lo =
          static_cast<std::size_t>(lane_start[lane_idx]);
      const std::size_t obj_hi =
          static_cast<std::size_t>(lane_start[lane_idx + 1]);
      for (std::size_t oi = obj_lo; oi < obj_hi; ++oi) {
        const std::int32_t obj = lane_objs[oi];
        auto& p = positions[static_cast<std::size_t>(obj)];
        const double c = x_axis ? p.x : p.y;
        const int b = x_axis ? bin_x(c) : bin_y(c);
        const double old_lo = lo + step * b;
        const double frac = std::clamp((c - old_lo) / step, 0.0, 1.0);
        const double new_lo = nb[static_cast<std::size_t>(b)];
        const double new_hi = nb[static_cast<std::size_t>(b) + 1];
        const double moved = new_lo + frac * (new_hi - new_lo);
        if (x_axis) p.x = moved;
        else p.y = moved;
      }
    });
  };
  // Several damped passes per call: one boundary adjustment only equalizes
  // neighbouring bins, so repeated sweeps are needed to drain a hot center.
  for (int pass = 0; pass < options_.spread_passes; ++pass) {
    shift_axis(/*x_axis=*/true);
    recompute_area();
    shift_axis(/*x_axis=*/false);
    recompute_area();
    if (compute_overflow() < options_.target_overflow) break;
  }
  return overflow;
}

void GlobalPlacer::accumulate_area(const Placement& positions,
                                   std::vector<double>& area) const {
  const PlaceModel& model = *model_;
  const geom::Rect& core = model.core;
  const int nx = grid_nx_;
  const int ny = grid_ny_;
  const double bw = bin_w_;
  const double bh = bin_h_;
  std::fill(area.begin(), area.end(), 0.0);

  // Object area is smeared over every bin its footprint overlaps (crucial
  // for cluster macros, which can span many bins; a point assignment would
  // make spreading blind to their real footprint). Chunks of objects fill
  // per-chunk bin scratch, merged serially in ascending chunk order; the
  // chunk count is capped so scratch memory stays bounded and — being a
  // function of the object count only — the merge order is thread-invariant.
  const std::size_t n = movable_objects_.size();
  // SoA footprint columns (gathered once at construction): the per-object
  // loop streams three flat doubles per cell instead of pulling the whole
  // PlaceObject record; values and accumulation order are unchanged.
  const double* PPACD_RESTRICT hw_col = scratch_->geom.col(0);
  const double* PPACD_RESTRICT hh_col = scratch_->geom.col(1);
  const double* PPACD_RESTRICT area_col = scratch_->geom.col(2);
  const std::int32_t* PPACD_RESTRICT mobj = movable_objects_.data();
  // Binning by reciprocal multiply: a divide per edge (4 per object) was
  // the loop's longest-latency op. The quotient can differ from the exact
  // division by an ulp, which only matters for a cell sitting exactly on a
  // bin boundary — a discretization tie re-broken once and covered by the
  // golden re-pin rationale (DESIGN.md §15).
  const double ibw = 1.0 / bw;
  const double ibh = 1.0 / bh;

  auto smear_range = [&](std::size_t mb, std::size_t me,
                         double* PPACD_RESTRICT bins) {
    for (std::size_t m = mb; m < me; ++m) {
      const auto& p = positions[static_cast<std::size_t>(mobj[m])];
      const double hw = hw_col[m];
      const double hh = hh_col[m];
      const int x0 = std::clamp(static_cast<int>((p.x - hw - core.lx) * ibw), 0, nx - 1);
      const int x1 = std::clamp(static_cast<int>((p.x + hw - core.lx) * ibw), 0, nx - 1);
      const int y0 = std::clamp(static_cast<int>((p.y - hh - core.ly) * ibh), 0, ny - 1);
      const int y1 = std::clamp(static_cast<int>((p.y + hh - core.ly) * ibh), 0, ny - 1);
      if (x0 == x1 && y0 == y1) {
        bins[static_cast<std::size_t>(y0) * static_cast<std::size_t>(nx) +
         static_cast<std::size_t>(x0)] += area_col[m];
        continue;
      }
      for (int by = y0; by <= y1; ++by) {
        const double oy = std::max(0.0, std::min(p.y + hh, core.ly + (by + 1) * bh) -
                                            std::max(p.y - hh, core.ly + by * bh));
        for (int bx = x0; bx <= x1; ++bx) {
          const double ox = std::max(0.0, std::min(p.x + hw, core.lx + (bx + 1) * bw) -
                                              std::max(p.x - hw, core.lx + bx * bw));
          bins[static_cast<std::size_t>(by) * static_cast<std::size_t>(nx) +
           static_cast<std::size_t>(bx)] += ox * oy;
        }
      }
    }
  };

  const std::size_t grain =
      std::max(kObjGrain, (n + kMaxAreaChunks - 1) / kMaxAreaChunks);
  const std::size_t chunks = exec::detail::chunk_count_for(n, grain);
  if (chunks <= 1) {
    // Single chunk: accumulate straight into `area`.
    smear_range(0, n, area.data());
    return;
  }

  std::vector<std::vector<double>>& scratch = scratch_->area_chunks;
  scratch.resize(chunks);
  exec::parallel_for_chunks(0, n, grain, [&](std::size_t ob, std::size_t oe,
                                             std::size_t chunk) {
    std::vector<double>& bins = scratch[chunk];
    bins.assign(area.size(), 0.0);
    smear_range(ob, oe, bins.data());
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    util::simd::add(area.data(), scratch[c].data(), area.size());
  }
}

double GlobalPlacer::measure_overflow(const Placement& positions) const {
  std::vector<double>& area = scratch_->measure_area;
  area.assign(
      static_cast<std::size_t>(grid_nx_) * static_cast<std::size_t>(grid_ny_),
      0.0);
  accumulate_area(positions, area);
  const double* PPACD_RESTRICT cap = scratch_->bin_cap.data();
  double overfill = 0.0;
  double total = 0.0;
  for (std::size_t b = 0; b < area.size(); ++b) {
    overfill += std::max(0.0, area[b] - cap[b]);
    total += area[b];
  }
  return total > 0.0 ? overfill / total : 0.0;
}

void GlobalPlacer::spread_bisection(Placement& positions) {
  const PlaceModel& model = *model_;
  // Recursive capacity-balanced bisection: split the object set at the
  // median of the region's longer axis so that each half receives a
  // sub-region proportional to its area, preserving the quadratic solution's
  // relative order while eliminating overlap at macro granularity.
  struct Frame {
    std::vector<std::int32_t> objects;
    geom::Rect region;
  };
  std::vector<Frame> stack;
  stack.push_back({movable_objects_, model.core});

  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const std::size_t n = frame.objects.size();
    if (n == 0) continue;
    if (n == 1) {
      const auto& o = model.objects[static_cast<std::size_t>(frame.objects[0])];
      geom::Point target = frame.region.center();
      // Keep the footprint inside the region where possible.
      const double hw = std::min(o.width_um * 0.5, frame.region.width() * 0.5);
      const double hh = std::min(o.height_um * 0.5, frame.region.height() * 0.5);
      target.x = std::clamp(target.x, frame.region.lx + hw, frame.region.ux - hw);
      target.y = std::clamp(target.y, frame.region.ly + hh, frame.region.uy - hh);
      positions[static_cast<std::size_t>(frame.objects[0])] = target;
      continue;
    }

    const bool split_x = frame.region.width() >= frame.region.height();
    std::sort(frame.objects.begin(), frame.objects.end(),
              [&](std::int32_t a, std::int32_t b) {
                const auto& pa = positions[static_cast<std::size_t>(a)];
                const auto& pb = positions[static_cast<std::size_t>(b)];
                return split_x ? pa.x < pb.x : pa.y < pb.y;
              });
    double total_area = 0.0;
    for (const std::int32_t obj : frame.objects) {
      total_area += model.objects[static_cast<std::size_t>(obj)].area_um2();
    }
    // Split the list at half the area.
    double prefix = 0.0;
    std::size_t split = 1;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      prefix += model.objects[static_cast<std::size_t>(frame.objects[i])].area_um2();
      if (prefix >= total_area * 0.5) {
        split = i + 1;
        break;
      }
      split = i + 1;
    }
    const double frac = total_area > 0.0 ? std::clamp(prefix / total_area, 0.1, 0.9) : 0.5;

    Frame lo;
    Frame hi;
    lo.objects.assign(frame.objects.begin(),
                      frame.objects.begin() + static_cast<std::ptrdiff_t>(split));
    hi.objects.assign(frame.objects.begin() + static_cast<std::ptrdiff_t>(split),
                      frame.objects.end());
    if (split_x) {
      const double cut = frame.region.lx + frac * frame.region.width();
      lo.region = geom::Rect::make(frame.region.lx, frame.region.ly, cut, frame.region.uy);
      hi.region = geom::Rect::make(cut, frame.region.ly, frame.region.ux, frame.region.uy);
    } else {
      const double cut = frame.region.ly + frac * frame.region.height();
      lo.region = geom::Rect::make(frame.region.lx, frame.region.ly, frame.region.ux, cut);
      hi.region = geom::Rect::make(frame.region.lx, cut, frame.region.ux, frame.region.uy);
    }
    stack.push_back(std::move(lo));
    stack.push_back(std::move(hi));
  }
}

void GlobalPlacer::clamp_to_core_and_regions(Placement& positions) {
  const PlaceModel& model = *model_;
  for (const std::int32_t obj : movable_objects_) {
    const auto& o = model.objects[static_cast<std::size_t>(obj)];
    auto& p = positions[static_cast<std::size_t>(obj)];
    geom::Rect bounds = model.core;
    if (regions_active_ && o.region.has_value()) bounds = *o.region;
    // Keep the object's footprint inside its bounds.
    const double hw = std::min(o.width_um * 0.5, bounds.width() * 0.5);
    const double hh = std::min(o.height_um * 0.5, bounds.height() * 0.5);
    p.x = std::clamp(p.x, bounds.lx + hw, bounds.ux - hw);
    p.y = std::clamp(p.y, bounds.ly + hh, bounds.uy - hh);
  }
}

PlaceResult GlobalPlacer::optimize(Placement positions, int iterations,
                                   const Placement* seed_anchor) {
  Placement anchors = positions;
  double overflow = 1.0;
  const int schedule_offset =
      seed_anchor != nullptr ? options_.incremental_anchor_offset : 0;
  // Flight recorder: only top-level placements stream (trace_iterations is
  // false for the nested VPR placements, whose emissions would collide).
  const bool observing = observe::active() && options_.trace_iterations;
  obs_iter_series_ = -1;
  obs_cg_series_[0] = obs_cg_series_[1] = -1;
  if (observing) {
    obs_iter_series_ = observe::recorder().begin_series(
        observe::Stream::kPlaceIter);
    obs_cg_series_[0] =
        observe::recorder().begin_series(observe::Stream::kPlaceCg);
    obs_cg_series_[1] =
        observe::recorder().begin_series(observe::Stream::kPlaceCg);
  }
  Placement pre_spread;  // observe-only snapshot; never feeds the solver
  std::string degrade_code;
  int iter = 0;
  for (; iter < iterations; ++iter) {
    telemetry::TraceSpan iter_span("place.gp.iter", options_.trace_iterations);
    // Fault site `place.solve`, keyed by outer-iteration index. error /
    // timeout stop the run with the best placement so far; poison models a
    // solver that produced non-finite coordinates (revert to the last
    // committed positions, then stop); alloc throws std::bad_alloc, which
    // the caller's allocation-failure handler catches.
    if (const auto kind =
            fault::trigger("place.solve", static_cast<std::uint64_t>(iter))) {
      if (*kind == fault::FaultKind::kAlloc) throw std::bad_alloc();
      degrade_code = fault::make_error("place.solve", *kind).code;
      if (*kind == fault::FaultKind::kPoison) positions = anchors;
      break;
    }
    // Fences bind throughout from-scratch runs; in incremental (seeded)
    // mode they only guide the early iterations (Alg. 1 line 20 removes
    // region constraints after the incremental placement).
    regions_active_ =
        seed_anchor == nullptr ||
        iter < static_cast<int>(options_.region_release_fraction * iterations);
    const double anchor_weight = options_.anchor_base * (iter + schedule_offset);
    // The seed guides only the first iterations; decaying it lets the B2B
    // optimization escape seed geometry that disagrees with the netlist.
    const double seed_decay = std::max(0.0, 1.0 - iter / 5.0);
    seed_weight_ = options_.incremental_anchor * seed_decay;
    obs_iter_ = iter;
    solve_direction(true, positions, anchors, anchor_weight, seed_anchor);
    solve_direction(false, positions, anchors, anchor_weight, seed_anchor);
    clamp_to_core_and_regions(positions);
    if (observing) pre_spread = positions;
    if (options_.spread_mode == SpreadMode::kBisection) {
      overflow = measure_overflow(positions);
      spread_bisection(positions);
    } else {
      overflow = spread(positions);
    }
    clamp_to_core_and_regions(positions);
    anchors = positions;
    const double hpwl = total_hpwl(*model_, positions);
    if (observing) {
      double disp_sum = 0.0;
      double disp_max = 0.0;
      for (const std::int32_t obj : movable_objects_) {
        const auto& a = pre_spread[static_cast<std::size_t>(obj)];
        const auto& b = positions[static_cast<std::size_t>(obj)];
        const double d = std::hypot(b.x - a.x, b.y - a.y);
        disp_sum += d;
        disp_max = std::max(disp_max, d);
      }
      const double disp_mean =
          movable_objects_.empty()
              ? 0.0
              : disp_sum / static_cast<double>(movable_objects_.size());
      observe::recorder().record(observe::Stream::kPlaceIter, obs_iter_series_,
                                 iter, 0,
                                 {hpwl, overflow, anchor_weight, disp_mean});
      observe::recorder().record(observe::Stream::kPlaceIter, obs_iter_series_,
                                 iter, 1, {disp_max});
    }
    PPACD_COUNT("place.gp.iterations", 1);
    iter_span.attr("iter", iter);
    iter_span.attr("overflow", overflow);
    iter_span.attr("hpwl", hpwl);
    PPACD_LOG_DEBUG("place") << "iter " << iter << " overflow " << overflow
                             << " hpwl " << hpwl;
    if (overflow < options_.target_overflow && iter + 1 >= options_.min_iterations) {
      ++iter;
      break;
    }
  }

  PlaceResult result;
  result.placement = std::move(positions);
  result.hpwl_um = total_hpwl(*model_, result.placement);
  result.overflow = overflow;
  result.iterations = iter;
  result.degrade_code = std::move(degrade_code);
  return result;
}

PlaceResult GlobalPlacer::run() {
  const PlaceModel& model = *model_;
  Placement positions(model.objects.size());
  util::Rng rng(options_.seed);
  const geom::Point center = model.core.center();
  const double jitter_x = model.core.width() * 0.05;
  const double jitter_y = model.core.height() * 0.05;
  for (std::size_t i = 0; i < model.objects.size(); ++i) {
    if (model.objects[i].fixed || model.objects[i].blockage) {
      positions[i] = model.objects[i].fixed_position;
    } else if (model.objects[i].region.has_value()) {
      positions[i] = model.objects[i].region->center();
    } else {
      positions[i] = {center.x + rng.uniform(-jitter_x, jitter_x),
                      center.y + rng.uniform(-jitter_y, jitter_y)};
    }
  }
  return optimize(std::move(positions), options_.max_iterations, nullptr);
}

PlaceResult GlobalPlacer::run_incremental(const Placement& seed) {
  PPACD_CHECK(seed.size() == model_->objects.size(),
              "incremental seed covers " << seed.size() << " of "
                                          << model_->objects.size() << " objects");
  Placement positions = seed;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (model_->objects[i].fixed || model_->objects[i].blockage) {
      positions[i] = model_->objects[i].fixed_position;
    }
  }
  clamp_to_core_and_regions(positions);
  const Placement seed_anchor = positions;
  return optimize(std::move(positions), options_.incremental_iterations,
                  &seed_anchor);
}

}  // namespace ppacd::place
