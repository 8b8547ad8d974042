/// \file bench_table4.cpp
/// \brief Table 4: post-route PPA with the Innovus-like flow (region
/// constraints + incremental placement) on all six designs, Default vs Ours.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace ppacd;
  util::Table table("Table 4: Post-route results with the Innovus-like flow");
  table.set_header({"Design", "Flow", "rWL", "WNS", "TNS", "Power"});
  util::CsvWriter csv;
  csv.set_header({"design", "flow", "rwl_norm", "rwl_um", "wns_ps", "tns_ns",
                  "power_w"});

  for (const gen::DesignSpec& spec : gen::all_design_specs()) {
    flow::FlowOptions base = bench::design_flow_options(spec);
    base.tool = flow::Tool::kInnovusLike;

    flow::FlowOptions flat = base;
    flat.strategy = flow::PlaceStrategy::kFlat;
    netlist::Netlist nl_default = bench::make_design(spec);
    const flow::FlowResult def = flow::try_run(nl_default, flat).value();
    const flow::PpaOutcome def_ppa =
        flow::try_evaluate_ppa(nl_default, def.place.positions, flat).value();

    netlist::Netlist nl_ours = bench::make_design(spec);
    flow::FlowOptions ours_options = base;
    ours_options.shape_mode = flow::ShapeMode::kVpr;
    const flow::FlowResult ours = flow::try_run(nl_ours, ours_options).value();
    const flow::PpaOutcome ours_ppa =
        flow::try_evaluate_ppa(nl_ours, ours.place.positions, ours_options).value();

    auto add = [&](const char* label, const flow::PpaOutcome& ppa) {
      const double rwl_norm = ppa.rwl_um / def_ppa.rwl_um;
      table.add_row({spec.name, label, bench::fmt(rwl_norm, 3),
                     bench::fmt(ppa.wns_ps, 0), bench::fmt(ppa.tns_ns, 2),
                     bench::fmt(ppa.power_w, 4)});
      csv.add_row({spec.name, label, bench::fmt(rwl_norm, 4),
                   bench::fmt(ppa.rwl_um, 1), bench::fmt(ppa.wns_ps, 1),
                   bench::fmt(ppa.tns_ns, 3), bench::fmt(ppa.power_w, 6)});
    };
    add("Default", def_ppa);
    add("Ours", ours_ppa);
  }
  table.print();
  bench::write_results(csv, "table4");
  std::printf("\nUnits: WNS ps, TNS ns, Power W. Expected shape (paper): Ours\n"
              "improves WNS/TNS on most designs with ~equal rWL/power.\n");
  return 0;
}
