#include "cluster/fc_multilevel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "cluster/ppa_costs.hpp"
#include "netlist/flat.hpp"
#include "observe/observe.hpp"
#include "telemetry/telemetry.hpp"
#include "util/csr.hpp"
#include "util/dense_scratch.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace ppacd::cluster {

namespace {

/// One coarsening level. Hyperedges live in two flat CSRs (edge -> sorted
/// unique vertices, vertex -> incident edge ids) with parallel per-edge cost
/// arrays; `fixed_cost` carries alpha*w_e + beta*t_e from the flat netlist
/// and `theta` the switching activity, so s_e can be re-evaluated per level
/// (the Eq. 2 normalization depends on the surviving edge set). Two
/// LevelGraphs ping-pong across levels, so contraction reuses buffers
/// instead of reallocating every pass.
struct LevelGraph {
  std::int32_t vertex_count = 0;
  std::vector<double> area;
  std::vector<std::int32_t> community;
  std::vector<double> edge_fixed_cost;
  std::vector<double> edge_theta;
  util::Csr<std::int32_t> edge_vertices;  ///< edge -> sorted unique vertices
  util::Csr<std::int32_t> incident;       ///< vertex -> incident edge ids

  std::size_t edge_count() const { return edge_vertices.rows(); }

  void rebuild_incidence() {
    incident.start_rows(static_cast<std::size_t>(vertex_count));
    for (std::size_t ei = 0; ei < edge_count(); ++ei) {
      for (const std::int32_t v : edge_vertices.row(ei)) {
        incident.add_to_row(static_cast<std::size_t>(v));
      }
    }
    incident.commit_rows();
    for (std::size_t ei = 0; ei < edge_count(); ++ei) {
      for (const std::int32_t v : edge_vertices.row(ei)) {
        incident.push(static_cast<std::size_t>(v), static_cast<std::int32_t>(ei));
      }
    }
  }
};

/// Union-find over one FC pass.
struct UnionFind {
  std::vector<std::int32_t> parent;
  explicit UnionFind(std::int32_t n) : parent(static_cast<std::size_t>(n)) {
    for (std::int32_t i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  }
  std::int32_t find(std::int32_t v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  }
  void unite(std::int32_t child, std::int32_t root) {
    parent[static_cast<std::size_t>(find(child))] = find(root);
  }
};

}  // namespace

FcResult fc_multilevel_cluster(const netlist::Netlist& nl,
                               const FcPpaInputs& ppa, const FcOptions& options) {
  telemetry::TraceSpan fc_span("cluster.fc");
  // Flight recorder: per-level coarsening progress plus the final cluster
  // size distribution and cut quality. Everything here is serial.
  const bool observing = observe::active();
  const std::int32_t obs_level_series =
      observing
          ? observe::recorder().begin_series(observe::Stream::kClusterLevel)
          : -1;
  FcResult result;
  const std::int32_t n_cells = static_cast<std::int32_t>(nl.cell_count());
  result.cluster_of_cell.assign(static_cast<std::size_t>(n_cells), 0);
  if (n_cells == 0) return result;

  const std::int32_t target =
      options.target_cluster_count > 0
          ? options.target_cluster_count
          : std::max<std::int32_t>(8, n_cells / 15);

  // --- Build the level-0 graph from the netlist ------------------------------
  LevelGraph level;
  level.vertex_count = n_cells;
  level.area.resize(static_cast<std::size_t>(n_cells));
  double total_area = 0.0;
  for (std::int32_t ci = 0; ci < n_cells; ++ci) {
    level.area[static_cast<std::size_t>(ci)] = nl.lib_cell_of(netlist::CellId(ci)).area_um2();
    total_area += level.area[static_cast<std::size_t>(ci)];
  }
  const double max_cluster_area =
      options.max_cluster_area_factor * total_area / static_cast<double>(target);

  const bool use_grouping = options.use_grouping && ppa.grouping != nullptr;
  level.community.assign(static_cast<std::size_t>(n_cells), 0);
  if (use_grouping) {
    assert(ppa.grouping->size() == nl.cell_count());
    level.community = *ppa.grouping;
  }

  const bool use_timing = options.use_timing && ppa.net_timing_cost != nullptr;
  const bool use_switching = options.use_switching && ppa.net_switching != nullptr;

  const netlist::FlatConnectivity flat = netlist::FlatConnectivity::build(nl);
  std::vector<std::int32_t> verts;  // reused per-edge vertex scratch
  level.edge_vertices.start_append(nl.net_count(),
                                   flat.net_cells.value_count());
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    const netlist::Net& net = nl.net(static_cast<netlist::NetId>(ni));
    if (net.is_clock) continue;
    const auto members = flat.net_cells.row(ni);
    verts.clear();
    // Level-0 vertex ids are cell ids by construction; later levels coarsen.
    for (const netlist::CellId c : members) verts.push_back(c.value());
    std::sort(verts.begin(), verts.end());
    verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
    if (verts.size() < 2 ||
        verts.size() > static_cast<std::size_t>(options.max_net_degree)) {
      continue;
    }
    level.edge_vertices.append_row(verts);
    double fixed_cost = options.alpha * net.weight;
    if (use_timing) {
      fixed_cost += options.beta * (*ppa.net_timing_cost)[ni];
    }
    level.edge_fixed_cost.push_back(fixed_cost);
    level.edge_theta.push_back(use_switching ? (*ppa.net_switching)[ni] : 0.0);
  }

  // Mapping from original cells to current-level vertices.
  std::vector<std::int32_t> projection(static_cast<std::size_t>(n_cells));
  for (std::int32_t i = 0; i < n_cells; ++i) {
    projection[static_cast<std::size_t>(i)] = i;
  }

  util::Rng rng(options.seed);
  bool allow_cross_community = !use_grouping;

  // Scratch reused across every level: neighbour-cluster ratings, the
  // contraction dedupe stamps, and the ping-pong coarse graph.
  util::DenseScratch<double> rating(static_cast<std::size_t>(n_cells));
  util::DenseScratch<char> seen(static_cast<std::size_t>(n_cells));
  LevelGraph coarse;

  for (int pass = 0; pass < options.max_levels; ++pass) {
    if (level.vertex_count <= target) break;
    telemetry::TraceSpan level_span("cluster.fc.level");
    level_span.attr("level", pass);
    level_span.attr("vertices", level.vertex_count);
    level_span.attr("edges", level.edge_count());
    level.rebuild_incidence();

    // Per-level switching costs (Eq. 2 over the surviving edges).
    std::vector<double> s_e;
    if (use_switching) {
      s_e = switching_costs(level.edge_theta, options.mu);
    }
    auto edge_cost = [&](std::size_t ei) {
      return level.edge_fixed_cost[ei] +
             (use_switching ? options.gamma * s_e[ei] : 0.0);
    };

    UnionFind uf(level.vertex_count);
    std::vector<double> cluster_area = level.area;
    std::int32_t merges = 0;
    const std::int32_t merge_budget = level.vertex_count - target;

    for (const std::size_t vi :
         rng.permutation(static_cast<std::size_t>(level.vertex_count))) {
      if (merges >= merge_budget) break;
      const std::int32_t u = static_cast<std::int32_t>(vi);
      const std::int32_t u_root = uf.find(u);

      rating.clear();
      for (const std::int32_t ei : level.incident.row(vi)) {
        const auto edge = level.edge_vertices.row(static_cast<std::size_t>(ei));
        const double contrib = edge_cost(static_cast<std::size_t>(ei)) /
                               static_cast<double>(edge.size() - 1);
        for (const std::int32_t v : edge) {
          const std::int32_t v_root = uf.find(v);
          if (v_root == u_root) continue;
          rating.add(v_root, contrib);
        }
      }

      std::int32_t best = -1;
      double best_rating = 0.0;
      for (const std::int32_t v_root : rating.keys()) {
        const double r = rating.get(v_root);
        if (r <= best_rating) continue;
        if (cluster_area[static_cast<std::size_t>(u_root)] +
                cluster_area[static_cast<std::size_t>(v_root)] >
            max_cluster_area) {
          continue;
        }
        if (!allow_cross_community &&
            level.community[static_cast<std::size_t>(v_root)] !=
                level.community[static_cast<std::size_t>(u_root)]) {
          continue;
        }
        best_rating = r;
        best = v_root;
      }
      if (best < 0) continue;
      // First Choice: u's cluster joins the best-rated neighbour cluster.
      uf.unite(u_root, best);
      cluster_area[static_cast<std::size_t>(best)] +=
          cluster_area[static_cast<std::size_t>(u_root)];
      ++merges;
    }

    PPACD_COUNT("cluster.fc.levels", 1);
    PPACD_COUNT("cluster.fc.merges", merges);
    const double match_rate =
        static_cast<double>(merges) / static_cast<double>(level.vertex_count);
    level_span.attr("merges", merges);
    level_span.attr("match_rate", match_rate);
    if (observing) {
      observe::recorder().record(
          observe::Stream::kClusterLevel, obs_level_series, pass, 0,
          {static_cast<double>(level.vertex_count),
           static_cast<double>(merges), match_rate});
    }

    if (merges == 0 ||
        merges < std::max<std::int32_t>(1, level.vertex_count / 50)) {
      if (!allow_cross_community) {
        // Grouping constraints exhausted: relax them (guides, not fences).
        allow_cross_community = true;
        result.grouping_relaxed = true;
        if (merges == 0) continue;
      } else if (merges == 0) {
        break;  // fully stalled
      }
    }

    // --- Contract ------------------------------------------------------------
    std::vector<std::int32_t> compact(static_cast<std::size_t>(level.vertex_count), -1);
    std::int32_t next = 0;
    for (std::int32_t v = 0; v < level.vertex_count; ++v) {
      const std::int32_t root = uf.find(v);
      if (compact[static_cast<std::size_t>(root)] < 0) {
        compact[static_cast<std::size_t>(root)] = next++;
      }
      compact[static_cast<std::size_t>(v)] = compact[static_cast<std::size_t>(root)];
    }
    coarse.vertex_count = next;
    coarse.area.assign(static_cast<std::size_t>(next), 0.0);
    coarse.community.assign(static_cast<std::size_t>(next), 0);
    for (std::int32_t v = 0; v < level.vertex_count; ++v) {
      const std::int32_t c = compact[static_cast<std::size_t>(v)];
      coarse.area[static_cast<std::size_t>(c)] += level.area[static_cast<std::size_t>(v)];
      coarse.community[static_cast<std::size_t>(c)] =
          level.community[static_cast<std::size_t>(v)];
    }
    // Remap each edge's vertices, dropping duplicates with epoch stamps (the
    // row was unique before merging, so only collapsed clusters repeat); the
    // small surviving set is then sorted to keep rows canonical.
    coarse.edge_fixed_cost.clear();
    coarse.edge_theta.clear();
    coarse.edge_vertices.start_append(level.edge_count(),
                                      level.edge_vertices.value_count());
    for (std::size_t ei = 0; ei < level.edge_count(); ++ei) {
      seen.clear();
      verts.clear();
      for (const std::int32_t v : level.edge_vertices.row(ei)) {
        const std::int32_t c = compact[static_cast<std::size_t>(v)];
        if (!seen.test_and_set(c)) verts.push_back(c);
      }
      if (verts.size() < 2) continue;
      std::sort(verts.begin(), verts.end());
      coarse.edge_vertices.append_row(verts);
      coarse.edge_fixed_cost.push_back(level.edge_fixed_cost[ei]);
      coarse.edge_theta.push_back(level.edge_theta[ei]);
    }
    for (std::int32_t& p : projection) {
      p = compact[static_cast<std::size_t>(p)];
    }
    std::swap(level, coarse);
    ++result.levels;
  }

  // --- Final clusters + singleton accounting ---------------------------------
  result.cluster_of_cell = projection;
  result.cluster_count = level.vertex_count;
  std::vector<std::int32_t> size(static_cast<std::size_t>(level.vertex_count), 0);
  for (const std::int32_t c : projection) ++size[static_cast<std::size_t>(c)];
  for (const std::int32_t s : size) {
    if (s == 1) ++result.singleton_count;
  }

  if (options.merge_singletons && result.singleton_count > 1) {
    // Ablation of footnote 2: collapse all singletons into one cluster.
    std::int32_t sink = -1;
    std::vector<std::int32_t> remap(static_cast<std::size_t>(level.vertex_count));
    std::int32_t next = 0;
    for (std::int32_t c = 0; c < level.vertex_count; ++c) {
      if (size[static_cast<std::size_t>(c)] == 1) {
        if (sink < 0) sink = next++;
        remap[static_cast<std::size_t>(c)] = sink;
      } else {
        remap[static_cast<std::size_t>(c)] = next++;
      }
    }
    for (std::int32_t& c : result.cluster_of_cell) {
      c = remap[static_cast<std::size_t>(c)];
    }
    result.cluster_count = next;
    result.singleton_count = 0;
  }

  if (observing) {
    // Final cluster size distribution (32-bin histogram, layout
    // [lo, hi, count_0..n-1], sizes recomputed after any singleton merge).
    std::vector<std::int32_t> final_size(
        static_cast<std::size_t>(result.cluster_count), 0);
    for (const std::int32_t c : result.cluster_of_cell) {
      ++final_size[static_cast<std::size_t>(c)];
    }
    constexpr int kSizeBins = 32;
    std::vector<double> frame(2 + kSizeBins, 0.0);
    if (!final_size.empty()) {
      double lo = final_size[0];
      double hi = final_size[0];
      for (const std::int32_t s : final_size) {
        lo = std::min(lo, static_cast<double>(s));
        hi = std::max(hi, static_cast<double>(s));
      }
      if (hi <= lo) hi = lo + 1.0;
      frame[0] = lo;
      frame[1] = hi;
      for (const std::int32_t s : final_size) {
        const int bin = std::min(
            kSizeBins - 1, static_cast<int>((s - lo) / (hi - lo) * kSizeBins));
        frame[static_cast<std::size_t>(2 + bin)] += 1.0;
      }
    }
    const std::int32_t size_series =
        observe::recorder().begin_series(observe::Stream::kClusterSize);
    observe::recorder().record_frame(observe::Stream::kClusterSize,
                                     size_series, 0, kSizeBins, 0,
                                     std::move(frame));

    // Cut quality: fraction of multi-cell nets spanning >1 final cluster.
    std::int64_t cut = 0;
    std::int64_t multi = 0;
    for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
      if (nl.net(static_cast<netlist::NetId>(ni)).is_clock) continue;
      const auto members = flat.net_cells.row(ni);
      if (members.empty()) continue;
      const netlist::CellId first_cell = members[0];
      const std::int32_t first_cluster =
          result.cluster_of_cell[first_cell.index()];
      bool is_multi = false;
      bool is_cut = false;
      for (const netlist::CellId cell : members) {
        if (cell == first_cell) continue;
        is_multi = true;
        if (result.cluster_of_cell[cell.index()] !=
            first_cluster) {
          is_cut = true;
          break;
        }
      }
      if (is_multi) {
        ++multi;
        if (is_cut) ++cut;
      }
    }
    const double cut_fraction =
        multi > 0 ? static_cast<double>(cut) / static_cast<double>(multi) : 0.0;
    const std::int32_t cut_series =
        observe::recorder().begin_series(observe::Stream::kClusterCut);
    observe::recorder().record(
        observe::Stream::kClusterCut, cut_series, 0, 0,
        {cut_fraction, static_cast<double>(result.cluster_count),
         static_cast<double>(result.singleton_count),
         static_cast<double>(result.levels)});
  }

  PPACD_COUNT("scratch.epoch.resets",
              static_cast<std::int64_t>(rating.resets() + seen.resets()));
  fc_span.attr("clusters", result.cluster_count);
  fc_span.attr("levels", result.levels);
  fc_span.attr("singletons", result.singleton_count);
  PPACD_LOG_DEBUG("fc") << nl.name() << ": " << result.cluster_count
                        << " clusters in " << result.levels << " levels, "
                        << result.singleton_count << " singletons";
  return result;
}

}  // namespace ppacd::cluster
