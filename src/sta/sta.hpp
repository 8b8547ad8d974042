/// \file sta.hpp
/// \brief Graph-based static timing analysis (OpenSTA substitute).
///
/// Provides what the paper extracts from OpenSTA (Alg. 1 lines 4-5) and what
/// the evaluation records (lines 27-29):
///   * arrival/required/slack per pin under a single-clock constraint,
///   * WNS/TNS over all endpoints (flip-flop D pins and output ports),
///   * the top |P| critical paths, one per endpoint, sorted by slack
///     (mirrors `findPathEnds` with endpoint_count=1, sort_by_slack=true),
///   * per-net slacks consumed by the PPA-aware clustering (Eq. 3).
///
/// Interconnect model: without placement, wires are ideal (pin caps only).
/// With placement, each driver-sink connection gets an Elmore-style delay
/// from its Manhattan length and the library's per-um R/C, and the driver's
/// load includes the net's HPWL wire capacitance.
///
/// Clocks: one ideal clock of period `clock_period_ps`. Per-register clock
/// arrival times (CTS insertion delays) can be injected to model the
/// post-CTS network; launch and capture edges then use those arrivals.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "fault/expected.hpp"
#include "geom/geometry.hpp"
#include "netlist/netlist.hpp"
#include "util/csr.hpp"

namespace ppacd::sta {

/// One timing path: ordered pins from a launch point to an endpoint.
struct TimingPath {
  std::vector<netlist::PinId> pins;
  double slack_ps = 0.0;
  double arrival_ps = 0.0;
  netlist::PinId endpoint = netlist::kInvalidId;
};

/// Analysis options.
struct StaOptions {
  double clock_period_ps = 1000.0;
  /// Cell center positions indexed by CellId; empty => ideal wires.
  const std::vector<geom::Point>* cell_positions = nullptr;
  /// Clock arrival (insertion delay) per cell, indexed by CellId; empty =>
  /// ideal clock (arrival 0 everywhere). Only sequential cells are read.
  const std::vector<double>* clock_arrivals_ps = nullptr;
  /// Stream per-level sweep widths and the end-of-run endpoint slack
  /// histogram to the flight recorder (src/observe). Off by default so the
  /// many nested STA runs (clustering costs, shape sweeps) stay silent; the
  /// flow enables it for the top-level PPA evaluation only.
  bool observe_stream = false;
};

/// Static timing engine. Construct, then call try_run(); queries are valid
/// after it succeeds and until the netlist changes.
class Sta {
 public:
  Sta(const netlist::Netlist& netlist, const StaOptions& options);

  /// Propagates arrivals and requireds. Must succeed before queries.
  /// Returns a structured error when the `sta.arrival` fault site fires,
  /// the propagated WNS/TNS come out non-finite, or allocation fails. On
  /// error the engine stays un-run (queries are invalid) and the caller
  /// decides the degradation (the flow falls back to HPWL-only cost).
  [[nodiscard]] fault::Expected<void, fault::FlowError> try_run();

  // --- Queries ---------------------------------------------------------------
  double arrival_ps(netlist::PinId pin) const { return arrival_.at(pin.index()); }
  double required_ps(netlist::PinId pin) const { return required_.at(pin.index()); }
  double slack_ps(netlist::PinId pin) const;

  /// Worst negative slack over all endpoints (0 if none negative).
  double wns_ps() const { return wns_ps_; }
  /// Total negative slack in ns (sum of negative endpoint slacks), <= 0.
  double tns_ns() const { return tns_ns_; }

  /// Slack of a net: slack at its driver pin (used as the net slack by the
  /// clustering timing cost). Returns +inf for undriven/clock nets.
  double net_slack_ps(netlist::NetId net) const;

  /// The worst path per endpoint, sorted by ascending slack, at most
  /// `max_paths` entries (the paper uses |P| = 100000, i.e. effectively all).
  std::vector<TimingPath> worst_paths(std::size_t max_paths) const;

  /// All endpoints (flip-flop D pins and output-port pins).
  const std::vector<netlist::PinId>& endpoints() const { return endpoints_; }

  /// Estimated wire length of `net` (HPWL); 0 under ideal wires.
  double net_wirelength_um(netlist::NetId net) const;

 private:
  geom::Point pin_position(netlist::PinId pin) const;
  double clock_arrival_of(netlist::CellId cell) const;
  /// The analysis behind try_run(): graph, arrivals, requireds, metrics.
  void analyze();
  void build_graph();
  void propagate_arrivals();
  void propagate_requireds();

  const netlist::Netlist* nl_;
  StaOptions options_;

  /// Timing arcs in SoA lanes indexed by arc id (DESIGN.md §15): the level
  /// sweeps touch only the lanes they read (arrivals: from + delay,
  /// requireds: to + delay) instead of pulling whole Arc records through
  /// the arc-id indirection, and each lane is a dense unit-stride stream
  /// for the 4-byte ids and 8-byte delays separately.
  std::vector<netlist::PinId> arc_from_;
  std::vector<netlist::PinId> arc_to_;
  std::vector<double> arc_delay_;
  /// Per-pin arc ids in flat CSR form, filled in arc creation order, so row
  /// contents match the per-pin push_back they replaced.
  util::Csr<std::int32_t> fanin_arcs_;
  util::Csr<std::int32_t> fanout_arcs_;
  std::vector<netlist::PinId> topo_order_;
  /// Pins grouped by topological level (longest fanin distance). Pins within
  /// a level share no arcs, so each level propagates pin-parallel; the pull
  /// form (each pin folds its own fanins in fixed order) keeps the result
  /// thread-count independent.
  util::Csr<netlist::PinId> level_buckets_;
  std::vector<netlist::PinId> endpoints_;

  std::vector<double> arrival_;
  std::vector<double> required_;
  /// Arc index that set each pin's arrival (for path backtracking); -1 at
  /// sources.
  std::vector<std::int32_t> worst_fanin_;

  double wns_ps_ = 0.0;
  double tns_ns_ = 0.0;
  bool ran_ = false;
};

}  // namespace ppacd::sta
