// Durable sparse checkpoints (the GSKP format, core/checkpoint.hpp) and
// the resume path that consumes them (core/sparse_cc_solver.cpp,
// DESIGN.md §15).  Three layers:
//
//   Gskp.*       — serializer/parser contracts: exact round-trips, atomic
//                  file discipline, semantic label-lattice validation;
//   GskpFuzz.*   — the loader is total under mutation, truncation and
//                  garbage, and hostile headers cannot force allocations
//                  (mirrors FuzzCheckpoint for the dense GCKP format);
//   GskpResume.* — end-to-end: a run cancelled mid-lattice resumes from
//                  its artifact to the bit-identical labeling in both
//                  sparse modes; artifacts from the wrong graph or a torn
//                  write are rejected into a diagnosed fresh start; a
//                  completed run cleans up after itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cc_solver.hpp"
#include "core/checkpoint.hpp"
#include "core/hirschberg_gca.hpp"
#include "gca/cancel.hpp"
#include "gca/execution.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"

namespace gcalib::gca {

// gtest prints a test parameter into the listed test name; by name, not as
// raw bytes.
void PrintTo(SparseMode mode, std::ostream* os) { *os << to_string(mode); }

}  // namespace gcalib::gca

namespace gcalib {
namespace {

using graph::NodeId;

graph::CsrGraph make_cycle(NodeId n) {
  std::vector<graph::Edge> edges;
  edges.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % n)});
  }
  return graph::CsrGraph::from_edges(n, edges);
}

/// A sparse supercritical G(n, 2/n): a giant component plus many small
/// ones, converging over ~a dozen hook/jump rounds.
/// (The plain 0..n-1 cycle is useless here: its single monotone label
/// chain collapses in one full jump subloop — no mid-lattice window for a
/// cancel to land in.)
struct SlowGraph {
  graph::CsrGraph csr;
  std::vector<NodeId> oracle;
};

SlowGraph slow_graph(NodeId n, std::uint64_t seed) {
  const graph::Graph g = graph::random_gnp(n, 2.0 / n, seed);
  return {graph::CsrGraph::from_graph(g), graph::union_find_components(g)};
}

core::SparseCheckpointData sample_data(const graph::CsrGraph& csr) {
  core::SparseCheckpointData data;
  data.n = csr.node_count();
  data.round = 3;
  data.graph_hash = csr.content_hash();
  data.labels.resize(csr.node_count());
  for (NodeId v = 0; v < csr.node_count(); ++v) {
    data.labels[v] = v / 2;  // lattice-legal: label[v] <= v
  }
  return data;
}

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  const Status status = core::ensure_checkpoint_dir(dir);
  EXPECT_TRUE(status.ok()) << status.message;
  return dir;
}

TEST(Gskp, SerializeParseRoundTripsExactly) {
  const graph::CsrGraph csr = make_cycle(37);
  const core::SparseCheckpointData data = sample_data(csr);
  const std::string bytes = core::serialize_sparse_checkpoint(data);
  core::SparseCheckpointData parsed;
  const Status status = core::parse_sparse_checkpoint(bytes, parsed);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(parsed, data);
  EXPECT_EQ(core::serialize_sparse_checkpoint(parsed), bytes);
}

TEST(Gskp, FileSaveLoadAndColdStart) {
  const std::string dir = fresh_dir("gskp_file");
  const std::string path = core::sparse_checkpoint_path_in(dir);
  core::SparseCheckpointData missing;
  EXPECT_EQ(core::load_sparse_checkpoint_file(path, missing).code,
            StatusCode::kNotFound);

  const graph::CsrGraph csr = make_cycle(21);
  const core::SparseCheckpointData data = sample_data(csr);
  ASSERT_TRUE(core::save_sparse_checkpoint_file(path, data).ok());
  core::SparseCheckpointData loaded;
  ASSERT_TRUE(core::load_sparse_checkpoint_file(path, loaded).ok());
  EXPECT_EQ(loaded, data);

  core::remove_checkpoint_file(path);
  EXPECT_EQ(core::load_sparse_checkpoint_file(path, loaded).code,
            StatusCode::kNotFound);
}

TEST(Gskp, LatticeViolationsRejectedSemantically) {
  // label[v] > v is unreachable from any healthy run; the parser rejects
  // it even though magic, lengths and CRC are all pristine.
  const graph::CsrGraph csr = make_cycle(16);
  core::SparseCheckpointData data = sample_data(csr);
  data.labels[5] = 9;
  core::SparseCheckpointData out;
  const Status status = core::parse_sparse_checkpoint(
      core::serialize_sparse_checkpoint(data), out);
  EXPECT_EQ(status.code, StatusCode::kDataLoss);
  EXPECT_FALSE(status.message.empty());
}

// --- fuzz layer ---------------------------------------------------------

void expect_gskp_parser_is_total(const std::string& bytes,
                                 const std::string& context) {
  core::SparseCheckpointData out;
  const Status status = core::parse_sparse_checkpoint(bytes, out);
  if (status.ok()) {
    EXPECT_EQ(core::serialize_sparse_checkpoint(out), bytes) << context;
  } else {
    EXPECT_FALSE(status.message.empty()) << context;
  }
}

TEST(GskpFuzz, RandomMutationsNeverCrashOrSlipThrough) {
  Xoshiro256 rng(20260809);
  const std::string pristine =
      core::serialize_sparse_checkpoint(sample_data(make_cycle(29)));
  for (int round = 0; round < 400; ++round) {
    std::string mutated = pristine;
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^
          static_cast<unsigned char>(1u << (rng() % 8)));
    }
    expect_gskp_parser_is_total(mutated, "round " + std::to_string(round));
  }
}

TEST(GskpFuzz, EveryTruncationLengthRejected) {
  const std::string pristine =
      core::serialize_sparse_checkpoint(sample_data(make_cycle(11)));
  for (std::size_t keep = 0; keep < pristine.size(); ++keep) {
    core::SparseCheckpointData out;
    EXPECT_FALSE(
        core::parse_sparse_checkpoint(pristine.substr(0, keep), out).ok())
        << "kept " << keep << " bytes";
  }
}

TEST(GskpFuzz, RandomGarbageNeverCrashes) {
  Xoshiro256 rng(31338);
  for (int round = 0; round < 200; ++round) {
    std::string garbage(rng.below(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xFF);
    expect_gskp_parser_is_total(garbage,
                                "garbage round " + std::to_string(round));
  }
}

TEST(GskpFuzz, HostileLabelCountsCannotForceHugeAllocations) {
  const std::string pristine =
      core::serialize_sparse_checkpoint(sample_data(make_cycle(11)));
  for (std::uint64_t count :
       {std::uint64_t{1} << 29, std::uint64_t{1} << 40,
        std::uint64_t{0xFFFFFFFFFFFFFFFF}}) {
    std::string hostile = pristine;
    for (std::size_t i = 0; i < 8; ++i) {
      hostile[24 + i] = static_cast<char>((count >> (8 * i)) & 0xFF);
    }
    core::SparseCheckpointData out;
    EXPECT_FALSE(core::parse_sparse_checkpoint(hostile, out).ok())
        << "labels=" << count;
  }
}

TEST(GskpFuzz, ExtendedAndRepeatedBlobsRejected) {
  const std::string pristine =
      core::serialize_sparse_checkpoint(sample_data(make_cycle(11)));
  core::SparseCheckpointData out;
  EXPECT_FALSE(core::parse_sparse_checkpoint(pristine + '\0', out).ok());
  EXPECT_FALSE(core::parse_sparse_checkpoint(pristine + pristine, out).ok());
}

// --- resume layer -------------------------------------------------------

core::RunOptions resume_options(gca::SparseMode mode,
                                const std::string& dir) {
  core::RunOptions options;
  options.instrument = false;
  options.threads = 4;
  options.sparse_mode = mode;
  options.checkpoint_dir = dir;
  options.recovery.checkpoint_interval = 1;  // GSKP after every round
  return options;
}

class GskpResume : public ::testing::TestWithParam<gca::SparseMode> {};

TEST_P(GskpResume, CancelMidRunThenResumeBitIdentical) {
  // The run needs ~a dozen rounds, so cancelling at round 3 lands
  // mid-lattice with real progress in the artifact.  The relaunch must
  // resume (not restart) and still converge to the canonical labeling —
  // the lattice guarantees any valid intermediate state does.
  const NodeId n = 1 << 14;
  const SlowGraph slow = slow_graph(n, 2026);
  const graph::CsrGraph& csr = slow.csr;
  const std::string dir = fresh_dir("gskp_resume_sync");

  gca::CancelToken token;
  core::RunOptions crash = resume_options(GetParam(), dir);
  crash.cancel = &token;
  crash.sparse_before_round = [&token](const core::SparseRoundContext& ctx) {
    if (ctx.round >= 3) token.request_cancel();
  };
  EXPECT_THROW(core::sparse_cc_solver().solve(core::SolverInput(csr), crash),
               gca::Cancelled);

  // The artifact survived the cancelled run.
  core::SparseCheckpointData artifact;
  ASSERT_TRUE(core::load_sparse_checkpoint_file(
                  core::sparse_checkpoint_path_in(dir), artifact)
                  .ok());
  EXPECT_EQ(artifact.n, n);
  EXPECT_EQ(artifact.graph_hash, csr.content_hash());
  EXPECT_GE(artifact.round, 1u);

  const core::QueryResult resumed = core::sparse_cc_solver().solve(
      core::SolverInput(csr), resume_options(GetParam(), dir));
  EXPECT_TRUE(resumed.resumed);
  EXPECT_GE(resumed.resume_round, 1u);

  EXPECT_EQ(resumed.labels, slow.oracle);

  // Success removes the artifact: the next run starts cold.
  core::SparseCheckpointData leftover;
  EXPECT_EQ(core::load_sparse_checkpoint_file(
                core::sparse_checkpoint_path_in(dir), leftover)
                .code,
            StatusCode::kNotFound);
}

// Checkpointed solves run the sync round loop whatever the mode; the
// parameter keeps the suite's name.
INSTANTIATE_TEST_SUITE_P(Modes, GskpResume,
                         ::testing::Values(gca::SparseMode::kSync),
                         [](const auto&) { return "Sync"; });

TEST(GskpResumeGuards, GraphHashMismatchStartsFreshWithDiagnosis) {
  // An artifact from graph A must never seed a solve of graph B, however
  // valid its lattice looks: the content hash binds artifact to input.
  const graph::CsrGraph a = make_cycle(64);
  const graph::CsrGraph b = make_cycle(96);
  const std::string dir = fresh_dir("gskp_hash_mismatch");
  core::SparseCheckpointData stale = sample_data(a);
  ASSERT_TRUE(core::save_sparse_checkpoint_file(
                  core::sparse_checkpoint_path_in(dir), stale)
                  .ok());

  const core::QueryResult result = core::sparse_cc_solver().solve(
      core::SolverInput(b), resume_options(gca::SparseMode::kSync, dir));
  EXPECT_FALSE(result.resumed);
  EXPECT_FALSE(result.diagnoses.empty());

  graph::UnionFind oracle(96);
  for (NodeId v = 0; v < 96; ++v) {
    oracle.unite(v, static_cast<NodeId>((v + 1) % 96));
  }
  EXPECT_EQ(result.labels, oracle.min_labels());
}

TEST(GskpResumeGuards, TornArtifactStartsFreshWithDiagnosis) {
  const graph::CsrGraph csr = make_cycle(64);
  const std::string dir = fresh_dir("gskp_torn");
  const std::string path = core::sparse_checkpoint_path_in(dir);
  const std::string bytes =
      core::serialize_sparse_checkpoint(sample_data(csr));
  // A torn write: the first half of a valid artifact under the real name.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
  std::fclose(f);

  const core::QueryResult result = core::sparse_cc_solver().solve(
      core::SolverInput(csr), resume_options(gca::SparseMode::kSync, dir));
  EXPECT_FALSE(result.resumed);
  EXPECT_FALSE(result.diagnoses.empty());
  EXPECT_EQ(result.components, 1u);
}

}  // namespace
}  // namespace gcalib
