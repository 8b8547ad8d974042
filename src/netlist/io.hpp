/// \file io.hpp
/// \brief Netlist and placement interchange.
///
/// The paper's flow reads .v/.def; this module provides the equivalent
/// surface for this library:
///   * write_verilog / try_read_verilog: gate-level structural Verilog over
///     the library's cells. The subset covers what the writer emits -- one
///     module, `input/output/wire` declarations, and named-connection
///     instantiations. Hierarchy is encoded in escaped instance names
///     (\core0/alu/g42) and restored on read.
///   * write_placement_def / read_placement_def: a DEF-like COMPONENTS
///     section carrying placed cell locations (microns), for handing
///     placements between tools or sessions.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "fault/expected.hpp"
#include "geom/geometry.hpp"
#include "netlist/netlist.hpp"

namespace ppacd::netlist {

/// Writes gate-level structural Verilog. Every net becomes a wire named
/// after the netlist net; ports keep their names.
void write_verilog(const Netlist& netlist, std::ostream& out);

/// Reads the structural-Verilog subset produced by write_verilog; instance
/// names containing '/' re-create the module hierarchy. This is the
/// `io.read` fault site. Malformed input maps to `io-parse-failed` with
/// "line N: ..." as the message; injected faults map to `io-read-failed` /
/// `io-read-timeout` / `non-finite-result` / `alloc-failure`, and a real
/// allocation failure to `alloc-failure` too.
[[nodiscard]] fault::Expected<Netlist, fault::FlowError> try_read_verilog(
    std::istream& in, const liberty::Library& library);

/// Opens `path` and parses it via try_read_verilog. A file that cannot be
/// opened maps to `io-open-failed`.
[[nodiscard]] fault::Expected<Netlist, fault::FlowError> try_load_verilog(
    const std::string& path, const liberty::Library& library);

/// Writes a DEF-like placement: DESIGN, DIEAREA, and one COMPONENTS entry
/// per cell with its center in microns.
void write_placement_def(const Netlist& netlist,
                         const std::vector<geom::Point>& positions,
                         const geom::Rect& die, std::ostream& out);

/// Parse errors of read_placement_def: a line number and message.
struct ParseError {
  int line = 0;
  std::string message;
};

/// Reads a placement written by write_placement_def back into positions
/// (indexed by CellId, matched by cell name). Cells missing from the file
/// keep (0,0). Returns false on malformed input or unknown cells.
bool read_placement_def(std::istream& in, const Netlist& netlist,
                        std::vector<geom::Point>* positions,
                        ParseError* error = nullptr);

}  // namespace ppacd::netlist
