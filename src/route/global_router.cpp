#include "route/global_router.hpp"

#include <algorithm>
#include "util/assert.hpp"
#include <cmath>
#include <limits>
#include <new>

#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "observe/observe.hpp"
#include "route/steiner.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"
#include "util/simd.hpp"

namespace ppacd::route {

namespace {

/// Nets routed concurrently between usage commits. Within a batch every net
/// routes against the same frozen usage/history snapshot; usage is then
/// committed serially in batch order, so the outcome is identical for any
/// thread count (the batch boundaries depend only on the net ordering).
constexpr std::size_t kRouteBatch = 64;

/// Rip-up-and-reroute uses smaller batches: rerouted nets are blind to each
/// other within a batch, and congested nets herd onto the same escape routes
/// when too many reroute against the same snapshot.
constexpr std::size_t kRerouteBatch = 8;

/// Nets per parallel chunk inside a batch / topology build.
constexpr std::size_t kNetGrain = 4;

/// Serial retries of a net whose `route.maze` fault fired, each attempt
/// re-consulting the plan, before the net is left unrouted.
constexpr int kRouteRetries = 2;

}  // namespace

double RouteResult::top_congestion(double percent) const {
  if (edge_utilization.empty()) return 0.0;
  std::vector<double> sorted = edge_utilization;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(sorted.size()) * percent /
                                  100.0));
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) sum += sorted[i];
  return sum / static_cast<double>(count);
}

GlobalRouter::GlobalRouter(const netlist::Netlist& netlist,
                           const std::vector<geom::Point>& positions,
                           const geom::Rect& core, const RouteOptions& options)
    : nl_(&netlist), positions_(&positions), core_(core), options_(options) {
  nx_ = std::max(2, static_cast<int>(std::ceil(core.width() / options.gcell_um)));
  ny_ = std::max(2, static_cast<int>(std::ceil(core.height() / options.gcell_um)));
  const std::size_t h_size =
      static_cast<std::size_t>(nx_ - 1) * static_cast<std::size_t>(ny_);
  const std::size_t v_size =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_ - 1);
  h_size_ = static_cast<std::int32_t>(h_size);
  edges_.assign(h_size + v_size, EdgeState{});
}

GlobalRouter::GridPoint GlobalRouter::gcell_of(const geom::Point& p) const {
  GridPoint g;
  g.x = std::clamp(static_cast<int>((p.x - core_.lx) / options_.gcell_um), 0, nx_ - 1);
  g.y = std::clamp(static_cast<int>((p.y - core_.ly) / options_.gcell_um), 0, ny_ - 1);
  return g;
}

std::size_t GlobalRouter::h_index(int x, int y) const {
  PPACD_DCHECK(x >= 0 && x < nx_ - 1 && y >= 0 && y < ny_,
               "h edge (" << x << ", " << y << ") outside " << nx_ << " x " << ny_);
  return static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_ - 1) +
           static_cast<std::size_t>(x);
}

std::size_t GlobalRouter::v_index(int x, int y) const {
  PPACD_DCHECK(x >= 0 && x < nx_ && y >= 0 && y < ny_ - 1,
               "v edge (" << x << ", " << y << ") outside " << nx_ << " x " << ny_);
  return static_cast<std::size_t>(x) * static_cast<std::size_t>(ny_ - 1) +
           static_cast<std::size_t>(y);
}

std::int32_t GlobalRouter::h_edge(int x, int y) const {
  return static_cast<std::int32_t>(h_index(x, y));
}

std::int32_t GlobalRouter::v_edge(int x, int y) const {
  return h_size_ + static_cast<std::int32_t>(v_index(x, y));
}

double GlobalRouter::edge_cost(std::int32_t e,
                               const ExcludedUsage* excluded) const {
  const EdgeState& state = edges_[static_cast<std::size_t>(e)];
  double usage = state.usage;
  if (excluded != nullptr) {
    usage -= excluded->get(e, 0.0);
  }
  const double cap = e < h_size_ ? options_.h_capacity : options_.v_capacity;
  double cost = 1.0 + state.history;
  if (usage + 1.0 > cap) {
    cost += options_.overflow_penalty * (usage + 1.0 - cap);
  }
  return cost;
}

double GlobalRouter::acc_cost_h(double acc, int x0, int x1, int y,
                                const ExcludedUsage* excluded) const {
  const int lo = std::min(x0, x1);
  const int hi = std::max(x0, x1);
  const std::int32_t base = h_edge(lo, y);
  for (std::int32_t e = base; e < base + (hi - lo); ++e) {
    acc += edge_cost(e, excluded);
  }
  return acc;
}

double GlobalRouter::acc_cost_v(double acc, int x, int y0, int y1,
                                const ExcludedUsage* excluded) const {
  const int lo = std::min(y0, y1);
  const int hi = std::max(y0, y1);
  const std::int32_t base = v_edge(x, lo);
  for (std::int32_t e = base; e < base + (hi - lo); ++e) {
    acc += edge_cost(e, excluded);
  }
  return acc;
}

void GlobalRouter::commit(const std::vector<std::int32_t>& path, int delta) {
  for (const std::int32_t e : path) {
    double& usage = edges_[static_cast<std::size_t>(e)].usage;
    usage += delta;
    PPACD_DCHECK(usage >= -1e-9, "negative edge usage " << usage);
  }
}

void GlobalRouter::append_h(std::vector<std::int32_t>& path, int x0, int x1,
                            int y) const {
  const int lo = std::min(x0, x1);
  const int hi = std::max(x0, x1);
  path.reserve(path.size() + static_cast<std::size_t>(hi - lo));
  // Consecutive ids: h_index is contiguous in x along a row.
  const std::int32_t base = lo < hi ? h_edge(lo, y) : 0;
  for (std::int32_t e = 0; e < hi - lo; ++e) path.push_back(base + e);
}

void GlobalRouter::append_v(std::vector<std::int32_t>& path, int x, int y0,
                            int y1) const {
  const int lo = std::min(y0, y1);
  const int hi = std::max(y0, y1);
  path.reserve(path.size() + static_cast<std::size_t>(hi - lo));
  // Consecutive ids: v_index is contiguous in y along a column.
  const std::int32_t base = lo < hi ? v_edge(x, lo) : 0;
  for (std::int32_t e = 0; e < hi - lo; ++e) path.push_back(base + e);
}

void GlobalRouter::route_segment(GridPoint a, GridPoint b,
                                 const ExcludedUsage* excluded,
                                 std::vector<std::int32_t>& out) const {
  if (a.x == b.x && a.y == b.y) return;
  if (a.x == b.x) {
    append_v(out, a.x, a.y, b.y);
    return;
  }
  if (a.y == b.y) {
    append_h(out, a.x, b.x, a.y);
    return;
  }

  // Cost every candidate with the acc_cost_* folds (same edge order and the
  // same sequential summation the old build-then-path_cost version used) and
  // materialize only the winner. Candidates are considered in the same order
  // and the first strictly cheaper one wins, so the chosen path — and every
  // committed bit downstream — is unchanged.
  enum Kind { kHV, kVH, kXJog, kYJog };
  double best_cost = std::numeric_limits<double>::infinity();
  Kind best_kind = kHV;
  int best_mid = 0;
  auto consider = [&](double cost, Kind kind, int mid) {
    if (cost < best_cost) {
      best_cost = cost;
      best_kind = kind;
      best_mid = mid;
    }
  };

  // L-shapes.
  consider(acc_cost_v(acc_cost_h(0.0, a.x, b.x, a.y, excluded), b.x, a.y, b.y,
                      excluded),
           kHV, 0);
  consider(acc_cost_h(acc_cost_v(0.0, a.x, a.y, b.y, excluded), a.x, b.x, b.y,
                      excluded),
           kVH, 0);

  // Z-shapes: vertical jog at sampled intermediate columns, horizontal jog
  // at sampled intermediate rows.
  const int dx = std::abs(a.x - b.x);
  const int dy = std::abs(a.y - b.y);
  const int samples = options_.z_samples;
  if (dx > 1) {
    const int step = std::max(1, dx / (samples + 1));
    for (int xm = std::min(a.x, b.x) + step; xm < std::max(a.x, b.x); xm += step) {
      double cost = acc_cost_h(0.0, a.x, xm, a.y, excluded);
      cost = acc_cost_v(cost, xm, a.y, b.y, excluded);
      cost = acc_cost_h(cost, xm, b.x, b.y, excluded);
      consider(cost, kXJog, xm);
    }
  }
  if (dy > 1) {
    const int step = std::max(1, dy / (samples + 1));
    for (int ym = std::min(a.y, b.y) + step; ym < std::max(a.y, b.y); ym += step) {
      double cost = acc_cost_v(0.0, a.x, a.y, ym, excluded);
      cost = acc_cost_h(cost, a.x, b.x, ym, excluded);
      cost = acc_cost_v(cost, b.x, ym, b.y, excluded);
      consider(cost, kYJog, ym);
    }
  }

  switch (best_kind) {
    case kHV:
      append_h(out, a.x, b.x, a.y);
      append_v(out, b.x, a.y, b.y);
      break;
    case kVH:
      append_v(out, a.x, a.y, b.y);
      append_h(out, a.x, b.x, b.y);
      break;
    case kXJog:
      append_h(out, a.x, best_mid, a.y);
      append_v(out, best_mid, a.y, b.y);
      append_h(out, best_mid, b.x, b.y);
      break;
    case kYJog:
      append_v(out, a.x, a.y, best_mid);
      append_h(out, a.x, b.x, best_mid);
      append_v(out, b.x, best_mid, b.y);
      break;
  }
}

void GlobalRouter::route_maze(GridPoint a, GridPoint b,
                              const ExcludedUsage* excluded,
                              std::vector<std::int32_t>& out) const {
  // Bounded search window (nodes outside it are never relaxed).
  const int x0 = std::max(0, std::min(a.x, b.x) - options_.maze_margin);
  const int x1 = std::min(nx_ - 1, std::max(a.x, b.x) + options_.maze_margin);
  const int y0 = std::max(0, std::min(a.y, b.y) - options_.maze_margin);
  const int y1 = std::min(ny_ - 1, std::max(a.y, b.y) + options_.maze_margin);
  // Queue/parent node ids pack the coordinates as (y << 16) | x. Integer
  // comparison of packed ids is lexicographic in (y, x) — the same ordering
  // as the row-major ids the binary heap broke distance ties with, so the
  // pop order is unchanged — and unpacking x/y or stepping to a neighbor is
  // bit arithmetic instead of an integer divide per expansion. The
  // epoch-stamped node array is indexed row-major (one multiply to convert).
  auto pack = [](int x, int y) {
    return (static_cast<std::int32_t>(y) << 16) | static_cast<std::int32_t>(x);
  };
  // Node state is indexed window-locally: the scratch block for a typical
  // bounded window fits in L1/L2, where full-grid row-major indexing would
  // scatter a small search across megabytes. Queue ids stay globally packed
  // (y << 16) | x — the tie-break order is untouched.
  const std::int32_t wnx = x1 - x0 + 1;
  auto idx_of = [wnx, x0, y0](std::int32_t p) {
    return ((p >> 16) - y0) * wnx + ((p & 0xffff) - x0);
  };

  SlotScratch& slot = slots_[exec::this_worker_slot()];
  const std::size_t ncells = static_cast<std::size_t>(wnx) *
                             static_cast<std::size_t>(y1 - y0 + 1);
  if (slot.maze_nodes.size() < ncells) {
    slot.maze_nodes.assign(
        std::max(ncells, slot.maze_nodes.size() * 2), SlotScratch::MazeNode{});
    slot.maze_epoch = 0;
  }
  SlotScratch::MazeNode* PPACD_RESTRICT nodes = slot.maze_nodes.data();
  const std::uint32_t epoch = ++slot.maze_epoch;

  // Every edge cost is >= 1.0 (cost = 1.0 + history + penalty terms), which
  // is exactly the monotonicity contract the width-1.0 bucket queue needs
  // for a pop order bit-identical to the old binary heap (bucket_queue.hpp).
  BucketQueue& queue = slot.maze_queue;
  queue.begin();
  const std::int32_t start = pack(a.x, a.y);
  const std::int32_t goal = pack(b.x, b.y);
  nodes[idx_of(start)] = SlotScratch::MazeNode{0.0, -1, epoch};
  queue.push(0.0, start);

  // Same arithmetic as edge_cost, with the per-edge invariants hoisted and
  // the h/v capacity chosen per call site instead of per edge.
  const EdgeState* PPACD_RESTRICT es = edges_.data();
  const double hcap = options_.h_capacity;
  const double vcap = options_.v_capacity;
  const double penalty = options_.overflow_penalty;
  auto cost_of = [&](std::int32_t e, double cap) {
    const EdgeState state = es[e];
    double usage = state.usage;
    if (excluded != nullptr) usage -= excluded->get(e, 0.0);
    double cost = 1.0 + state.history;
    if (usage + 1.0 > cap) cost += penalty * (usage + 1.0 - cap);
    return cost;
  };

  const std::int32_t hstride = nx_ - 1;
  const std::int32_t vstride = ny_ - 1;
  constexpr std::int32_t kYStep = 1 << 16;
  BucketQueue::Entry top;
  while (queue.pop(top)) {
    const auto [d, node] = top;
    const std::int32_t node_idx = idx_of(node);
    if (d > nodes[node_idx].dist) continue;  // stale, same skip as the heap
    if (node == goal) break;
    const int x = node & 0xffff;
    const int y = node >> 16;
    // Neighbor edge ids follow from the dense layout: h edges of row y start
    // at y*(nx-1), v edges of column x start at h_size_ + x*(ny-1). The four
    // steps relax in the same E, W, N, S order the old Step loop used.
    const std::int32_t hrow = static_cast<std::int32_t>(y) * hstride;
    const std::int32_t vcol = h_size_ + static_cast<std::int32_t>(x) * vstride;
    auto relax = [&](std::int32_t edge, double cap, std::int32_t next,
                     std::int32_t next_idx) {
      const double nd = d + cost_of(edge, cap);
      SlotScratch::MazeNode& n = nodes[next_idx];
      if (n.stamp != epoch) {
        n = SlotScratch::MazeNode{nd, node, epoch};
        queue.push(nd, next);
      } else if (nd < n.dist) {
        n.dist = nd;
        n.parent = node;
        queue.push(nd, next);
      }
    };
    if (x + 1 <= x1) relax(hrow + x, hcap, node + 1, node_idx + 1);
    if (x - 1 >= x0) relax(hrow + x - 1, hcap, node - 1, node_idx - 1);
    if (y + 1 <= y1) relax(vcol + y, vcap, node + kYStep, node_idx + wnx);
    if (y - 1 >= y0) relax(vcol + y - 1, vcap, node - kYStep, node_idx - wnx);
  }
  const std::int32_t goal_idx = idx_of(goal);
  if (nodes[goal_idx].stamp != epoch || !std::isfinite(nodes[goal_idx].dist)) {
    route_segment(a, b, excluded, out);  // defensive; window is connected
    return;
  }

  // Path length = number of backtrack hops; count first so the single
  // append below never reallocates mid-loop.
  std::size_t hops = 0;
  for (std::int32_t node = goal; nodes[idx_of(node)].parent >= 0;
       node = nodes[idx_of(node)].parent) {
    ++hops;
  }
  out.reserve(out.size() + hops);
  for (std::int32_t node = goal; nodes[idx_of(node)].parent >= 0;
       node = nodes[idx_of(node)].parent) {
    const std::int32_t prev = nodes[idx_of(node)].parent;
    const int cx = node & 0xffff;
    const int cy = node >> 16;
    const int px = prev & 0xffff;
    const int py = prev >> 16;
    if (cy == py) {
      out.push_back(h_edge(std::min(cx, px), cy));
    } else {
      out.push_back(v_edge(cx, std::min(cy, py)));
    }
  }
}

RouteResult GlobalRouter::run() {
  const netlist::Netlist& nl = *nl_;

  // One scratch slot per worker lane; the virtual rip-up tables address the
  // full edge-id space (h edges then v edges).
  slots_.resize(exec::worker_slots());
  for (SlotScratch& slot : slots_) {
    slot.own.grow(edges_.size());
  }

  // Build two-pin segments (in GCell space) for every routable net. Paths
  // are stored flat per net: one edge-id array plus the exclusive end offset
  // of each segment's span, so a routed net costs two allocations total
  // instead of one vector per segment.
  struct SegSpan {
    GridPoint a;
    GridPoint b;
    std::int32_t end = 0;  ///< exclusive end of this segment's edges
  };
  struct NetRoute {
    netlist::NetId net = netlist::kInvalidId;
    std::vector<SegSpan> segments;
    std::vector<std::int32_t> edges;  ///< concatenated segment paths
    double hpwl = 0.0;
  };
  std::vector<netlist::NetId> routable;
  routable.reserve(nl.net_count());
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    const netlist::NetId net_id = static_cast<netlist::NetId>(ni);
    const netlist::Net& net = nl.net(net_id);
    if (net.pins.size() < 2) continue;
    if (net.is_clock && !options_.route_clock_nets) continue;
    routable.push_back(net_id);
  }

  // Topology construction is per-net independent (pure reads + its own slot).
  std::vector<NetRoute> routes(routable.size());
  exec::parallel_for(0, routable.size(), kNetGrain, [&](std::size_t i) {
    const netlist::NetId net_id = routable[i];
    const netlist::Net& net = nl.net(net_id);
    SlotScratch& slot = slots_[exec::this_worker_slot()];
    std::vector<geom::Point>& pins = slot.pins;
    pins.clear();
    pins.reserve(net.pins.size());
    geom::BBox box;
    for (netlist::PinId pid : net.pins) {
      const netlist::Pin& pin = nl.pin(pid);
      const geom::Point pos = pin.kind == netlist::PinKind::kTopPort
                                  ? nl.port(pin.port).position
                                  : positions_->at(pin.cell.index());
      pins.push_back(pos);
      box.expand(pos);
    }
    NetRoute& route = routes[i];
    route.net = net_id;
    route.hpwl = box.half_perimeter();
    std::vector<Segment>& topology = slot.topo_segs;
    if (options_.use_steiner_topology) {
      steiner_segments_into(pins, slot.topo, topology);
    } else {
      spanning_segments_into(pins, slot.topo, topology);
    }
    route.segments.reserve(topology.size());
    for (const Segment& seg : topology) {
      route.segments.push_back(SegSpan{gcell_of(seg.a), gcell_of(seg.b), 0});
    }
  });

  // Short nets first: they have the least routing flexibility. Net id breaks
  // HPWL ties so the order (and thus every downstream result) is total.
  std::sort(routes.begin(), routes.end(),
            [](const NetRoute& a, const NetRoute& b) {
              if (a.hpwl != b.hpwl) return a.hpwl < b.hpwl;
              return a.net < b.net;
            });

  // Fault site `route.maze`, keyed by net id so firing is independent of
  // the batch schedule. Failed nets skip the batch and are retried serially
  // below; poisoned nets route normally but their wirelength contribution
  // is NaN-poisoned at collection.
  const bool faults_on = fault::plan_active();
  std::vector<std::uint8_t> net_failed(faults_on ? routes.size() : 0, 0);
  std::vector<std::uint8_t> net_poisoned(faults_on ? routes.size() : 0, 0);

  // Routes all segments of one net into the lane's flat staging buffer and
  // copies the result into the net (exact-sized, two allocations).
  auto route_net = [&](NetRoute& route, const ExcludedUsage* excluded) {
    SlotScratch& slot = slots_[exec::this_worker_slot()];
    slot.path_edges.clear();
    for (SegSpan& seg : route.segments) {
      route_segment(seg.a, seg.b, excluded, slot.path_edges);
      seg.end = static_cast<std::int32_t>(slot.path_edges.size());
    }
    route.edges.assign(slot.path_edges.begin(), slot.path_edges.end());
  };

  // Flight recorder. Gated on options_.observe_stream so nested shape-sweep
  // routers stay silent; every scan below is observe-only (pure reads of the
  // committed usage) and runs from the serial commit points.
  const bool observing = options_.observe_stream && observe::active();
  std::int32_t obs_batch_series = -1;
  std::int32_t obs_round_series = -1;
  if (observing) {
    obs_batch_series =
        observe::recorder().begin_series(observe::Stream::kRouteBatch);
    obs_round_series =
        observe::recorder().begin_series(observe::Stream::kRouteRound);
  }
  auto overflow_now = [&] {
    int over_edges = 0;
    double total = 0.0;
    for (std::int32_t e = 0; e < h_size_; ++e) {
      const double u = edges_[static_cast<std::size_t>(e)].usage;
      if (u > options_.h_capacity) {
        ++over_edges;
        total += u - options_.h_capacity;
      }
    }
    for (std::size_t e = static_cast<std::size_t>(h_size_); e < edges_.size();
         ++e) {
      const double u = edges_[e].usage;
      if (u > options_.v_capacity) {
        ++over_edges;
        total += u - options_.v_capacity;
      }
    }
    return std::pair<int, double>(over_edges, total);
  };
  // Congestion heatmap: per-GCell worst incident-edge utilization,
  // max-pooled onto a bounded grid so frames stay small on large designs.
  auto emit_heatmap = [&](std::int64_t round) {
    const int bx = std::min(nx_, 48);
    const int by = std::min(ny_, 48);
    if (bx <= 0 || by <= 0) return;
    std::vector<double> grid(
      static_cast<std::size_t>(bx) * static_cast<std::size_t>(by), 0.0);
    auto pool = [&](int x, int y, double util) {
      const int gx = std::min(bx - 1, x * bx / nx_);
      const int gy = std::min(by - 1, y * by / ny_);
      double& cell = grid[static_cast<std::size_t>(gy) *
                            static_cast<std::size_t>(bx) +
                        static_cast<std::size_t>(gx)];
      cell = std::max(cell, util);
    };
    for (int y = 0; y < ny_; ++y) {
      for (int x = 0; x + 1 < nx_; ++x) {
        pool(x, y, edges_[h_index(x, y)].usage / options_.h_capacity);
      }
    }
    for (int y = 0; y + 1 < ny_; ++y) {
      for (int x = 0; x < nx_; ++x) {
        pool(x, y,
             edges_[static_cast<std::size_t>(v_edge(x, y))].usage /
                 options_.v_capacity);
      }
    }
    observe::recorder().record_frame(observe::Stream::kRouteHeatmap,
                                     obs_round_series, round, bx, by,
                                     std::move(grid));
  };

  // Initial routing in parallel batches: route against the frozen usage,
  // commit serially in net order between batches.
  for (std::size_t base = 0; base < routes.size(); base += kRouteBatch) {
    const std::size_t batch_end = std::min(routes.size(), base + kRouteBatch);
    exec::parallel_for(base, batch_end, kNetGrain, [&](std::size_t i) {
      NetRoute& route = routes[i];
      if (faults_on) {
        if (const auto kind = fault::trigger(
                "route.maze", static_cast<std::uint64_t>(route.net.value()))) {
          switch (*kind) {
            case fault::FaultKind::kAlloc:
              throw std::bad_alloc();
            case fault::FaultKind::kPoison:
              net_poisoned[i] = 1;
              break;  // route normally; poison applies at collection
            default:  // error / timeout: this net's route failed
              net_failed[i] = 1;
              return;
          }
        }
      }
      route_net(route, nullptr);
    });
    for (std::size_t i = base; i < batch_end; ++i) {
      commit(routes[i].edges, +1);
    }
    if (observing) {
      const auto [over_edges, total_over] = overflow_now();
      observe::recorder().record(
          observe::Stream::kRouteBatch, obs_batch_series,
          static_cast<std::int64_t>(base / kRouteBatch), 0,
          {static_cast<double>(batch_end - base),
           static_cast<double>(batch_end), static_cast<double>(over_edges),
           total_over});
    }
  }
  PPACD_COUNT("route.nets.routed", routes.size());

  // Serial retries for failed nets, in net order (deterministic), each
  // attempt re-consulting the fault plan with its attempt number so
  // probabilistic (transient) faults can clear while permanent ones keep
  // firing. Nets that exhaust the budget stay unrouted (partial result).
  int failed_final = 0;
  if (faults_on) {
    for (std::size_t i = 0; i < routes.size(); ++i) {
      if (!net_failed[i]) continue;
      NetRoute& route = routes[i];
      bool routed = false;
      for (int attempt = 1; attempt <= kRouteRetries; ++attempt) {
        if (fault::trigger("route.maze",
                           static_cast<std::uint64_t>(route.net.value()),
                           static_cast<std::uint32_t>(attempt))) {
          continue;  // still failing on this attempt
        }
        route_net(route, nullptr);
        commit(route.edges, +1);
        routed = true;
        break;
      }
      if (!routed) ++failed_final;
    }
    PPACD_COUNT("route.nets.failed", failed_final);
  }

  // Negotiated rip-up-and-reroute. Reroute buffers are hoisted out of the
  // round loop and reused (clear keeps capacity), so negotiation rounds
  // allocate only when a net's new route outgrows its old storage.
  std::vector<std::uint8_t> flagged(routes.size(), 0);
  std::vector<std::size_t> victims;
  struct Reroute {
    std::vector<std::int32_t> edges;
    std::vector<std::int32_t> seg_end;
  };
  std::vector<Reroute> rerouted(kRerouteBatch);
  for (int round = 0; round < options_.rrr_rounds; ++round) {
    // Mark overflowed edges and bump their history.
    auto edge_overflowed = [&](std::int32_t e) {
      const EdgeState& state = edges_[static_cast<std::size_t>(e)];
      const double cap = e < h_size_ ? options_.h_capacity : options_.v_capacity;
      return state.usage > cap;
    };
    int over_edges = 0;
    for (std::int32_t e = 0; e < h_size_; ++e) {
      EdgeState& state = edges_[static_cast<std::size_t>(e)];
      if (state.usage > options_.h_capacity) {
        state.history += options_.history_increment;
        ++over_edges;
      }
    }
    for (std::size_t e = static_cast<std::size_t>(h_size_); e < edges_.size();
         ++e) {
      EdgeState& state = edges_[e];
      if (state.usage > options_.v_capacity) {
        state.history += options_.history_increment;
        ++over_edges;
      }
    }
    if (over_edges == 0) {
      if (observing) {
        observe::recorder().record(observe::Stream::kRouteRound,
                                   obs_round_series, round, 0,
                                   {0.0, 0.0, 0.0});
      }
      break;
    }
    PPACD_COUNT("route.rrr.rounds", 1);

    // Flag the nets crossing an overflowed edge (pure parallel scan), then
    // reroute them in batches: rip the whole batch out, reroute every net
    // against the frozen usage, commit back in net order.
    flagged.assign(routes.size(), 0);
    exec::parallel_for(0, routes.size(), kNetGrain, [&](std::size_t i) {
      for (const std::int32_t e : routes[i].edges) {
        if (edge_overflowed(e)) {
          flagged[i] = 1;
          return;
        }
      }
    });
    victims.clear();
    for (std::size_t i = 0; i < routes.size(); ++i) {
      if (flagged[i]) victims.push_back(i);
    }
    PPACD_COUNT("route.maze.reroutes", victims.size());
    if (observing) {
      observe::recorder().record(
          observe::Stream::kRouteRound, obs_round_series, round, 0,
          {static_cast<double>(over_edges),
           static_cast<double>(victims.size()), overflow_now().second});
      emit_heatmap(round);
    }

    for (std::size_t base = 0; base < victims.size(); base += kRerouteBatch) {
      const std::size_t batch_end = std::min(victims.size(), base + kRerouteBatch);
      exec::parallel_for(base, batch_end, kNetGrain, [&](std::size_t v) {
        const NetRoute& route = routes[victims[v]];
        // Virtual rip-up: cost against the frozen usage minus this net's own
        // committed edges, leaving the shared state untouched until the
        // serial commit below. The lane's epoch-stamped table resets in O(1).
        ExcludedUsage& own = slots_[exec::this_worker_slot()].own;
        own.clear();
        for (const std::int32_t e : route.edges) {
          own.add(e, 1.0);
        }
        Reroute& next = rerouted[v - base];
        next.edges.clear();
        next.seg_end.clear();
        for (const SegSpan& seg : route.segments) {
          if (options_.maze_fallback) {
            route_maze(seg.a, seg.b, &own, next.edges);
          } else {
            route_segment(seg.a, seg.b, &own, next.edges);
          }
          next.seg_end.push_back(static_cast<std::int32_t>(next.edges.size()));
        }
      });
      for (std::size_t v = base; v < batch_end; ++v) {
        NetRoute& route = routes[victims[v]];
        const Reroute& next = rerouted[v - base];
        commit(route.edges, -1);
        route.edges.assign(next.edges.begin(), next.edges.end());
        for (std::size_t s = 0; s < route.segments.size(); ++s) {
          route.segments[s].end = next.seg_end[s];
        }
        commit(route.edges, +1);
      }
    }
  }

  // Final congestion picture (also covers rrr_rounds == 0 and early exits).
  if (observing) emit_heatmap(options_.rrr_rounds);

  // Collect results. The clean path keeps the original per-segment summation
  // order exactly (bit-identical wirelength).
  RouteResult result;
  result.grid_nx = nx_;
  result.grid_ny = ny_;
  result.failed_nets = failed_final;
  auto net_wirelength = [&](const NetRoute& route, double& wl) {
    std::int32_t prev = 0;
    for (const SegSpan& seg : route.segments) {
      wl += static_cast<double>(seg.end - prev) * options_.gcell_um;
      prev = seg.end;
    }
  };
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (faults_on && net_poisoned[i]) {
      result.wirelength_um += fault::poison_value();
      continue;
    }
    net_wirelength(routes[i], result.wirelength_um);
  }
  if (!std::isfinite(result.wirelength_um)) {
    // Poisoned nets made the total non-finite: degrade to a partial result
    // by dropping their contribution and reporting them as failed.
    result.wirelength_um = 0.0;
    for (std::size_t i = 0; i < routes.size(); ++i) {
      if (faults_on && net_poisoned[i]) {
        ++result.failed_nets;
        continue;
      }
      net_wirelength(routes[i], result.wirelength_um);
    }
  }
  result.edge_utilization.reserve(edges_.size());
  for (std::int32_t e = 0; e < h_size_; ++e) {
    const double u = edges_[static_cast<std::size_t>(e)].usage;
    const double util = u / options_.h_capacity;
    result.edge_utilization.push_back(util);
    result.max_utilization = std::max(result.max_utilization, util);
    if (u > options_.h_capacity) {
      ++result.overflow_edges;
      result.total_overflow += u - options_.h_capacity;
    }
  }
  for (std::size_t e = static_cast<std::size_t>(h_size_); e < edges_.size();
       ++e) {
    const double u = edges_[e].usage;
    const double util = u / options_.v_capacity;
    result.edge_utilization.push_back(util);
    result.max_utilization = std::max(result.max_utilization, util);
    if (u > options_.v_capacity) {
      ++result.overflow_edges;
      result.total_overflow += u - options_.v_capacity;
    }
  }
  std::uint64_t scratch_resets = 0;
  for (const SlotScratch& slot : slots_) scratch_resets += slot.own.resets();
  PPACD_COUNT("scratch.epoch.resets", scratch_resets);
  PPACD_LOG_DEBUG("route") << nl.name() << ": rWL " << result.wirelength_um
                           << " um, overflow edges " << result.overflow_edges;
  return result;
}

}  // namespace ppacd::route
