// Kernel registry: parse/support queries, option validation, and the
// bit-identity suite — every registered variant, across all execution
// backends and thread counts, must reproduce the instrumented mediated
// rule path bit for bit, at every step (DESIGN.md §13).
#include "gca/kernel_registry.hpp"

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/execution.hpp"
#include "graph/generators.hpp"

namespace gcalib {
namespace {

using core::HirschbergGca;
using core::RunOptions;
using gca::KernelVariant;

TEST(KernelRegistry, ParseRoundTripsEveryVariantName) {
  for (const KernelVariant v :
       {KernelVariant::kScalar, KernelVariant::kAvx2, KernelVariant::kNeon,
        KernelVariant::kAuto}) {
    EXPECT_EQ(gca::parse_kernel_variant(gca::to_string(v)), v);
  }
}

TEST(KernelRegistry, ParseRejectsUnknownNames) {
  EXPECT_THROW((void)gca::parse_kernel_variant("sse9"), ContractViolation);
  EXPECT_THROW((void)gca::parse_kernel_variant(""), ContractViolation);
  EXPECT_THROW((void)gca::parse_kernel_variant("Scalar"), ContractViolation);
}

TEST(KernelRegistry, ScalarAndAutoAreAlwaysSupported) {
  EXPECT_TRUE(gca::kernel_variant_supported(KernelVariant::kScalar));
  EXPECT_TRUE(gca::kernel_variant_supported(KernelVariant::kAuto));
}

TEST(KernelRegistry, SupportedVariantsAreConcreteScalarFirst) {
  const std::vector<KernelVariant> variants = gca::supported_kernel_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), KernelVariant::kScalar);
  for (const KernelVariant v : variants) {
    EXPECT_NE(v, KernelVariant::kAuto);
    EXPECT_TRUE(gca::kernel_variant_supported(v));
  }
}

TEST(KernelRegistry, ResolveAutoPicksASupportedConcreteVariant) {
  const KernelVariant resolved =
      gca::resolve_kernel_variant(KernelVariant::kAuto);
  EXPECT_NE(resolved, KernelVariant::kAuto);
  EXPECT_TRUE(gca::kernel_variant_supported(resolved));
  // Concrete variants resolve to themselves.
  EXPECT_EQ(gca::resolve_kernel_variant(KernelVariant::kScalar),
            KernelVariant::kScalar);
}

TEST(KernelRegistry, TablesCarryEveryKernel) {
  for (const KernelVariant v : gca::supported_kernel_variants()) {
    const gca::KernelTable& table = gca::kernel_table(v);
    EXPECT_STREQ(table.name, gca::to_string(v));
    EXPECT_NE(table.column_broadcast, nullptr);
    EXPECT_NE(table.mask_neighbors, nullptr);
    EXPECT_NE(table.mask_members, nullptr);
    EXPECT_NE(table.row_min, nullptr);
    EXPECT_NE(table.row_min_span, nullptr);
    EXPECT_NE(table.row_min_indexed, nullptr);
    EXPECT_NE(table.adopt, nullptr);
    EXPECT_NE(table.pointer_jump_indexed, nullptr);
    if (v == KernelVariant::kScalar) {
      // The scalar table keeps generations 0/4/8/11 on the mediated
      // per-cell rule — the pre-SIMD behaviour the reference is pinned to.
      EXPECT_EQ(table.init, nullptr);
      EXPECT_EQ(table.fallback_indexed, nullptr);
      EXPECT_EQ(table.final_min_indexed, nullptr);
    } else {
      EXPECT_NE(table.init, nullptr);
      EXPECT_NE(table.fallback_indexed, nullptr);
      EXPECT_NE(table.final_min_indexed, nullptr);
    }
  }
  // The scalar table is the faithful pre-SIMD routing: no span kernel is
  // ever preferred over the strided window there.
  EXPECT_EQ(gca::kernel_table(KernelVariant::kScalar).row_min_span_max_offset,
            0u);
}

TEST(KernelRegistry, EngineOptionsValidateChecksHostSupport) {
  for (const KernelVariant v :
       {KernelVariant::kScalar, KernelVariant::kAvx2, KernelVariant::kNeon,
        KernelVariant::kAuto}) {
    gca::EngineOptions options;
    options.kernels = v;
    if (gca::kernel_variant_supported(v)) {
      EXPECT_NO_THROW(options.validate()) << gca::to_string(v);
    } else {
      EXPECT_THROW(options.validate(), ContractViolation) << gca::to_string(v);
    }
  }
}

// --- bit-identity suite -------------------------------------------------

/// Variants the identity suite exercises.  GCALIB_KERNELS restricts the
/// set (scripts/check.sh forces `scalar` once per run so the golden path
/// is pinned even on hosts whose auto pick is SIMD).
std::vector<KernelVariant> variants_under_test() {
  if (const char* forced = std::getenv("GCALIB_KERNELS")) {
    return {gca::parse_kernel_variant(forced)};
  }
  return gca::supported_kernel_variants();
}

std::uint64_t fnv1a(std::uint64_t hash, const std::uint32_t* data,
                    std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (data[i] >> (8 * byte)) & 0xFFu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

/// Per-step d/p-plane hashes plus the final labeling of one run.
struct Fingerprint {
  std::vector<std::uint64_t> steps;
  std::vector<graph::NodeId> labels;
};

Fingerprint run_machine(const graph::Graph& g, bool instrumented,
                        KernelVariant kernels, unsigned threads) {
  HirschbergGca machine(g);
  RunOptions options;
  options.instrument = instrumented;
  options.threads = threads;
  options.kernels = kernels;
  Fingerprint fp;
  options.after_step = [&fp](core::HirschbergGca& m, const core::StepId&) {
    const core::CheckpointData data = m.checkpoint_data(0);
    std::uint64_t hash = 1469598103934665603ull;
    hash = fnv1a(hash, data.d.data(), data.d.size());
    hash = fnv1a(hash, data.p.data(), data.p.size());
    fp.steps.push_back(hash);
  };
  fp.labels = machine.run(options).labels;
  return fp;
}

/// Every variant x backend x thread count must match the instrumented
/// mediated reference at *every step* — not just in the final labels —
/// so a kernel that diverges at inactive cells or in the p plane cannot
/// hide behind a later all-overwriting generation.
void expect_bit_identity(const graph::Graph& g, const std::string& what) {
  const Fingerprint reference =
      run_machine(g, /*instrumented=*/true, KernelVariant::kScalar, 1);
  ASSERT_FALSE(reference.steps.empty());
  for (const KernelVariant variant : variants_under_test()) {
    for (const unsigned threads : {1u, 2u, 4u, 7u}) {
      const Fingerprint fp =
          run_machine(g, /*instrumented=*/false, variant, threads);
      const std::string where = what + " / " + gca::to_string(variant) +
                                " x " + std::to_string(threads);
      ASSERT_EQ(fp.labels, reference.labels) << where;
      ASSERT_EQ(fp.steps.size(), reference.steps.size()) << where;
      for (std::size_t step = 0; step < fp.steps.size(); ++step) {
        ASSERT_EQ(fp.steps[step], reference.steps[step])
            << where << " diverges at step " << step;
      }
    }
  }
}

TEST(KernelIdentity, DenseRandomGraphMatchesMediatedReference) {
  // n = 67: ragged against both the 64-bit word size and the SIMD lane
  // widths; offsets 1..64 exercise span, window and worklist dispatch.
  expect_bit_identity(graph::random_gnp(67, 0.3, 20260809), "gnp(67, 0.3)");
}

TEST(KernelIdentity, SparseRandomGraphMatchesMediatedReference) {
  // n = 130: two payload words per row-slice plus a tail, offsets to 128.
  expect_bit_identity(graph::random_gnp(130, 0.08, 424242), "gnp(130, 0.08)");
}

TEST(KernelIdentity, TreeMatchesMediatedReference) {
  // Deep component structure: many pointer-jump rounds with real work.
  expect_bit_identity(graph::random_tree(96, 7), "tree(96)");
}

}  // namespace
}  // namespace gcalib
