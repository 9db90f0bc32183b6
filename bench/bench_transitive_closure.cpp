// Transitive closure on the GCA (companion experiment; the paper's
// reference [5] covers both closure and connected components, and its
// conclusion names "more elaborate PRAM algorithms" as future work).
// Prints the generation counts and congestion of the two-handed closure
// machine over a size sweep, next to the sequential Warshall baseline.
//
// Usage: bench_transitive_closure [--sweep "4,8,16,32"] [--p 0.15]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/transitive_closure.hpp"

namespace {

gcalib::core::BoolMatrix random_digraph(std::size_t n, double p,
                                        std::uint64_t seed) {
  gcalib::Xoshiro256 rng(seed);
  gcalib::core::BoolMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(p)) m.set(i, j);
    }
  }
  return m;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcalib;
  const CliArgs args = CliArgs::parse_or_exit(
      argc, argv, {{"sweep", true}, {"p", true}, {"seed", true}});
  const double p = args.get_double("p", 0.15);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::printf("Transitive closure on a two-handed GCA (repeated squaring)\n");
  std::printf("random digraphs, edge probability %.2f\n\n", p);

  TextTable table({"n", "generations", "formula", "max congestion",
                   "gca sim [ms]", "warshall [ms]", "agree"});
  for (std::size_t n : args.get_count_list("sweep", {4, 8, 16, 32, 64})) {
    const core::BoolMatrix a = random_digraph(n, p, seed);

    const auto t0 = std::chrono::steady_clock::now();
    const core::TcRunResult gca = core::transitive_closure_gca(a);
    const double gca_ms = ms_since(t0);

    const auto t1 = std::chrono::steady_clock::now();
    const core::BoolMatrix oracle = core::transitive_closure_warshall(a);
    const double warshall_ms = ms_since(t1);

    table.add_row({std::to_string(n), std::to_string(gca.generations),
                   std::to_string(core::tc_total_generations(n)),
                   std::to_string(gca.max_congestion), fixed(gca_ms, 2),
                   fixed(warshall_ms, 3),
                   gca.closure == oracle ? "yes" : "NO"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nreading: ceil(lg n)*(n+1) generations on n^2 two-handed cells with\n"
      "congestion 2n at the pivot — closure lacks the structure that lets\n"
      "connected components run in O(log^2 n) generations.\n");
  return 0;
}
