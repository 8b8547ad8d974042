/// \file global_router.hpp
/// \brief GCell-grid global routing with pattern routes and negotiated
/// rip-up-and-reroute (FastRoute substitute).
///
/// Supplies the two signals the paper's evaluation needs:
///   * routed wirelength (rWL, Tables 3-6) from committed paths, and
///   * the GCell congestion map behind Cost_Congestion (Eq. 5): the router
///     exposes all edge utilizations so callers can average the top X%.
///
/// Each two-pin segment (from the net's spanning topology) is routed with
/// the cheapest of the two L-shapes and a family of Z-shapes under a
/// congestion-aware edge cost. A few negotiation rounds then rip up nets
/// crossing overflowed edges and re-route them with accumulated history
/// costs, the standard PathFinder-style scheme.
///
/// Data layout (DESIGN.md §15): grid edges are dense int32 ids (all
/// horizontal edges in h_index order, then all vertical edges in v_index
/// order), paths are flat id arrays, and usage/history live together in one
/// EdgeState array so the cost evaluation touches a single cache line per
/// edge. The maze search uses a monotone bucket queue (bucket_queue.hpp)
/// with a pop order bit-identical to the binary heap it replaced.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geom/geometry.hpp"
#include "netlist/netlist.hpp"
#include "route/bucket_queue.hpp"
#include "route/steiner.hpp"
#include "util/dense_scratch.hpp"

namespace ppacd::route {

struct RouteOptions {
  double gcell_um = 4.2;        ///< GCell edge length (~3 NanGate45 rows)
  int h_capacity = 12;          ///< horizontal tracks per GCell edge
  int v_capacity = 10;          ///< vertical tracks per GCell edge
  int rrr_rounds = 3;           ///< rip-up-and-reroute rounds
  double overflow_penalty = 4.0;///< extra cost per unit over capacity
  double history_increment = 1.0;
  int z_samples = 6;            ///< intermediate Z-shape positions tried
  bool route_clock_nets = false;///< clock handled by CTS, off by default
  /// Decompose nets with the Steiner-refined topology instead of the plain
  /// RMST (shorter routed wirelength at negligible cost).
  bool use_steiner_topology = true;
  /// Re-route congested segments with a bounded-box maze (Dijkstra) search
  /// during negotiation rounds instead of the pattern candidates.
  bool maze_fallback = true;
  /// Maze search window: GCells added around the segment bounding box.
  int maze_margin = 12;
  /// Stream per-batch/per-round progress and congestion heatmaps to the
  /// flight recorder (src/observe). Off by default so nested evaluations
  /// (VPR shape sweeps) stay silent; the flow enables it for the top-level
  /// PPA evaluation only.
  bool observe_stream = false;
};

struct RouteResult {
  double wirelength_um = 0.0;   ///< total committed routed wirelength
  int overflow_edges = 0;       ///< edges above capacity after the last round
  double total_overflow = 0.0;  ///< sum of (usage - capacity) over overfull edges
  double max_utilization = 0.0; ///< worst edge usage/capacity
  /// Usage/capacity of every grid edge (both directions), for Eq. 5.
  std::vector<double> edge_utilization;
  int grid_nx = 0;
  int grid_ny = 0;
  /// Nets left unrouted (or dropped for poisoned results) after the serial
  /// retry budget was exhausted; >0 means the result covers partial routes.
  int failed_nets = 0;

  /// Mean utilization over the top `percent`% most congested edges
  /// (Eq. 5's Congestion Cost with X = percent).
  double top_congestion(double percent) const;
};

class GlobalRouter {
 public:
  /// `positions` are cell centers indexed by CellId; ports use their fixed
  /// boundary locations. `core` bounds the routing grid.
  GlobalRouter(const netlist::Netlist& netlist,
               const std::vector<geom::Point>& positions,
               const geom::Rect& core, const RouteOptions& options);

  /// Routes everything. Per-net failures at the `route.maze` site are
  /// retried serially twice and then dropped into a partial result — see
  /// RouteResult::failed_nets; allocation failure throws std::bad_alloc.
  RouteResult run();

 private:
  struct GridPoint {
    int x = 0;
    int y = 0;
  };

  /// Usage and negotiation history of one grid edge, adjacent in memory so
  /// edge_cost touches one cache line per edge instead of two arrays.
  struct EdgeState {
    double usage = 0.0;
    double history = 0.0;
  };

  /// Usage subtracted from the committed state while costing a reroute: the
  /// rerouting net's own committed edges, keyed by edge id. Lets whole
  /// batches reroute concurrently against a frozen usage snapshot without
  /// mutating it (a virtual per-net rip-up). Epoch-stamped dense table: one
  /// clear() per net is O(touched), lookups are a plain array probe.
  using ExcludedUsage = util::DenseScratch<double>;

  /// Per-worker-lane reusable buffers (indexed by exec::this_worker_slot()),
  /// so routing a segment allocates nothing in steady state even when nets
  /// route concurrently.
  struct SlotScratch {
    /// Maze state spans the full grid and is epoch-stamped: a search only
    /// trusts entries whose stamp matches maze_epoch, so starting a search
    /// is O(1) instead of an O(window) reinitialization. dist/stamp/parent
    /// share one record so relaxing a node touches one cache line, not
    /// three parallel arrays.
    /// 16 bytes, two nodes per cache line. The 32-bit epoch would need 4.3
    /// billion searches through one router to wrap; a router routes a few
    /// tens of thousands of maze segments in its lifetime.
    struct MazeNode {
      double dist = 0.0;
      std::int32_t parent = -1;
      std::uint32_t stamp = 0;
    };
    std::vector<MazeNode> maze_nodes;
    std::uint32_t maze_epoch = 0;
    BucketQueue maze_queue;
    ExcludedUsage own;                        ///< virtual rip-up usage
    std::vector<geom::Point> pins;            ///< topology build buffer
    TopoScratch topo;                         ///< Steiner/RMST construction
    std::vector<Segment> topo_segs;           ///< topology staging
    std::vector<std::int32_t> path_edges;     ///< flat path staging
  };

  GridPoint gcell_of(const geom::Point& p) const;
  std::size_t h_index(int x, int y) const;  ///< edge (x,y)->(x+1,y)
  std::size_t v_index(int x, int y) const;  ///< edge (x,y)->(x,y+1)
  /// Dense edge ids: h edges in h_index order, then v edges offset by the
  /// h count (same key space the virtual rip-up tables use).
  std::int32_t h_edge(int x, int y) const;
  std::int32_t v_edge(int x, int y) const;
  double edge_cost(std::int32_t e, const ExcludedUsage* excluded) const;
  /// Folds the edge costs of a straight run onto `acc` in ascending
  /// coordinate order — the same order path_cost used to scan a built path,
  /// so pattern costs are bit-identical without materializing candidates.
  double acc_cost_h(double acc, int x0, int x1, int y,
                    const ExcludedUsage* excluded) const;
  double acc_cost_v(double acc, int x, int y0, int y1,
                    const ExcludedUsage* excluded) const;
  void commit(const std::vector<std::int32_t>& path, int delta);
  /// Appends the edges of a straight run from (x0,y) to (x1,y) (horizontal)
  /// or (x,y0)-(x,y1) (vertical) to `path`.
  void append_h(std::vector<std::int32_t>& path, int x0, int x1, int y) const;
  void append_v(std::vector<std::int32_t>& path, int x, int y0, int y1) const;
  /// Routes one segment, appending its edges to `out`: costs every pattern
  /// candidate with the acc_cost_* folds and materializes only the winner.
  void route_segment(GridPoint a, GridPoint b, const ExcludedUsage* excluded,
                     std::vector<std::int32_t>& out) const;
  /// Dijkstra within an inflated bounding box (monotone bucket queue, pop
  /// order identical to the old binary heap); appends to `out`. Falls back
  /// to the pattern route when the search fails (cannot happen inside a
  /// connected window).
  void route_maze(GridPoint a, GridPoint b, const ExcludedUsage* excluded,
                  std::vector<std::int32_t>& out) const;

  const netlist::Netlist* nl_;
  const std::vector<geom::Point>* positions_;
  geom::Rect core_;
  RouteOptions options_;
  int nx_ = 0;
  int ny_ = 0;
  std::int32_t h_size_ = 0;  ///< horizontal edge count (v ids start here)
  std::vector<EdgeState> edges_;
  mutable std::vector<SlotScratch> slots_;
};

}  // namespace ppacd::route
