// Reproduces the section-4 synthesis result: the paper reports, for the
// Altera Cyclone II EP2C70 at N = 16,
//     N x (N+1) = 272 cells; 23,051 logic elements; 2,192 register bits;
//     71 MHz clock frequency.
// We cannot run Quartus, so the calibrated structural cost model stands in
// (DESIGN.md, substitution table); this bench prints the model estimate at
// the paper's point and the predicted scaling curve, and can emit the
// reconstructed Verilog.
//
// Usage: bench_hw_synthesis [--sweep "4,8,16,32,64,128"] [--verilog out.v --n 16]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "hw/cost_model.hpp"
#include "hw/verilog_gen.hpp"

int main(int argc, char** argv) {
  using namespace gcalib;
  const CliArgs args = CliArgs::parse_or_exit(
      argc, argv, {{"sweep", true}, {"verilog", true}, {"n", true}});

  const hw::PaperDatapoint paper = hw::paper_ep2c70();
  const hw::SynthesisEstimate at16 = hw::estimate_for(paper.n);

  std::printf("Section 4 reproduction — FPGA synthesis (Cyclone II EP2C70)\n\n");
  TextTable head({"quantity", "paper (Quartus II)", "model (calibrated)"});
  head.set_align(0, Align::kLeft);
  head.add_row({"cells N x (N+1)", std::to_string(paper.cells),
                std::to_string(at16.cells)});
  head.add_row({"logic elements", with_commas(paper.logic_elements),
                with_commas(at16.logic_elements)});
  head.add_row({"register bits", with_commas(paper.register_bits),
                with_commas(at16.register_bits)});
  head.add_row({"clock frequency", fixed(paper.fmax_mhz, 1) + " MHz",
                fixed(at16.fmax_mhz, 1) + " MHz"});
  std::fputs(head.render().c_str(), stdout);
  std::printf(
      "\n(three free model scalars are fitted to this single datapoint;\n"
      "the sweep below is the model's *prediction* for other sizes)\n\n");

  TextTable sweep({"n", "cells", "logic elements", "register bits", "fmax",
                   "Mgenerations/s"});
  for (std::size_t n :
       args.get_count_list("sweep", {4, 8, 16, 32, 64, 128, 256})) {
    const hw::SynthesisEstimate est = hw::estimate_for(n);
    sweep.add_row({std::to_string(n), with_commas(est.cells),
                   with_commas(est.logic_elements), with_commas(est.register_bits),
                   fixed(est.fmax_mhz, 1) + " MHz",
                   fixed(est.generations_per_second() / 1e6, 1)});
  }
  std::fputs(sweep.render().c_str(), stdout);
  std::printf(
      "\nshape check: logic/registers grow ~n^2 (the cell field dominates),\n"
      "fmax decays logarithmically with the static-mux fan-in — the paper's\n"
      "claim that cell cost approaches memory cost.\n");

  if (args.has("verilog")) {
    const std::string path = args.get_string("verilog", "gca_field.v");
    const auto n = static_cast<std::size_t>(args.get_int("n", 16));
    hw::VerilogOptions options;
    options.include_testbench = true;
    std::ofstream out(path);
    out << hw::generate_verilog(n, options);
    std::printf("\nwrote reconstructed Verilog for n = %zu to %s\n", n,
                path.c_str());
  }
  return 0;
}
