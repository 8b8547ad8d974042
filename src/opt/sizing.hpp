/// \file sizing.hpp
/// \brief Critical-path gate sizing (repair_timing substitute).
///
/// Walks the worst timing paths and upsizes undersized drivers: a cell on a
/// violating path whose delay is dominated by drive resistance x load is
/// swapped for the next drive strength in its family (INV_X1 -> X2 -> X4,
/// BUF likewise). Iterates STA + sizing until no upgrade helps or the
/// round budget is exhausted. Only footprint-compatible swaps are made, so
/// the netlist stays structurally identical (area grows slightly;
/// re-legalize afterwards if exact legality matters).
#pragma once

#include <vector>

#include "geom/geometry.hpp"
#include "netlist/netlist.hpp"

namespace ppacd::opt {

struct SizingOptions {
  int max_rounds = 3;
  int paths_per_round = 50;      ///< worst paths examined each round
  double min_gain_ps = 1.0;      ///< predicted delay gain to accept a swap
  double clock_period_ps = 1000.0;
};

struct SizingResult {
  int upsized_cells = 0;
  int rounds = 0;
  double wns_before_ps = 0.0;
  double wns_after_ps = 0.0;
  double tns_before_ns = 0.0;
  double tns_after_ns = 0.0;
};

/// Upsizes drivers on violating paths. `positions` is used for the wire
/// load model (may be empty for ideal wires... pass the placed positions
/// for meaningful results). Stops sizing when an STA run fails.
SizingResult resize_critical_cells(netlist::Netlist& netlist,
                                   const std::vector<geom::Point>& positions,
                                   const SizingOptions& options);

}  // namespace ppacd::opt
