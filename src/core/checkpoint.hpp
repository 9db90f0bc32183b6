// Durable (on-disk) checkpoints for Hirschberg runs.
//
// PR 1's snapshot/rollback recovery dies with the process: a SIGKILL mid-
// algorithm loses every anchor and the run restarts from generation 0.
// This module serialises the full machine state — the a, d and p planes
// of every cell (the adjacency bits plus the d/p registers), the engine
// generation counter and the state-machine position (next outer
// iteration) — into a small versioned binary artifact that survives the
// process, so a relaunched run resumes mid-algorithm.
//
// Format (all integers little-endian, fixed width):
//
//   offset  size  field
//   0       4     magic "GCKP"
//   4       4     version (currently 1)
//   8       4     n (node count; field is (n+1) x n cells)
//   12      4     next outer iteration to execute
//   16      8     engine generation counter
//   24      8     cell count (must equal (n+1) * n)
//   32      4*C   a plane (adjacency bits)
//   32+4C   4*C   d plane (data words)
//   32+8C   4*C   p plane (pointer words)
//   end     4     CRC-32 (IEEE) over every preceding byte
//
// Torn-write safety: `save_checkpoint_file` writes to a temporary sibling
// and renames it over the target, so a crash mid-write leaves either the
// previous intact checkpoint or a stray temp file — never a half-written
// artifact under the real name.  The loader additionally verifies magic,
// version, exact length, the CRC, and the per-register value ranges, and
// reports each failure as a distinct `Status` diagnosis instead of ever
// accepting corrupt state (fuzzed in tests/fuzz_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace gcalib::core {

/// One serialisable machine state.  `HirschbergGca::checkpoint_data` /
/// `restore_from` convert between this and a live machine.
struct CheckpointData {
  std::uint32_t n = 0;           ///< node count; field is (n+1) x n
  std::uint32_t iteration = 0;   ///< next outer iteration to execute
  std::uint64_t generation = 0;  ///< engine generation counter
  std::vector<std::uint32_t> a;  ///< adjacency plane, (n+1) * n entries
  std::vector<std::uint32_t> d;  ///< data plane
  std::vector<std::uint32_t> p;  ///< pointer plane

  friend bool operator==(const CheckpointData&, const CheckpointData&) =
      default;
};

/// The on-disk encoding of `data` (header + planes + CRC).
[[nodiscard]] std::string serialize_checkpoint(const CheckpointData& data);

/// Inverse of `serialize_checkpoint` with full validation.  Returns
/// kDataLoss with a diagnosis on any corruption (bad magic/version, size
/// mismatch, truncation, CRC failure, out-of-range register values); `out`
/// is only written on success.  Never throws on malformed input.
[[nodiscard]] Status parse_checkpoint(const std::string& bytes,
                                      CheckpointData& out);

/// Atomically writes `data` to `path` (temp file + rename).  Returns
/// kInternal with the OS diagnosis when the filesystem refuses.
[[nodiscard]] Status save_checkpoint_file(const std::string& path,
                                          const CheckpointData& data);

/// Loads and validates a checkpoint file.  kNotFound when no file exists
/// (the normal cold-start case), kDataLoss for a torn or tampered file.
[[nodiscard]] Status load_checkpoint_file(const std::string& path,
                                          CheckpointData& out);

/// Removes a checkpoint file if present (cleanup after a completed run).
void remove_checkpoint_file(const std::string& path);

/// The checkpoint filename used inside a `--checkpoint-dir` directory.
[[nodiscard]] std::string checkpoint_path_in(const std::string& dir);

// --- sparse (CSR) checkpoints: the GSKP format -------------------------
//
// The sparse engine's whole resumable state is the label plane: labels
// form a monotone non-increasing lattice with a unique fixpoint (the
// canonical min-id labeling), so resuming *any* valid intermediate label
// vector — in either sparse mode — converges to the bit-identical result
// (DESIGN.md §15).  A GSKP artifact therefore carries just the labels, the
// round counter, and a content hash binding it to the exact graph it was
// taken from:
//
//   offset  size  field
//   0       4     magic "GSKP"
//   4       4     version (currently 1)
//   8       4     n (node count)
//   12      4     next round to execute
//   16      8     graph content hash (CsrGraph::content_hash)
//   24      8     label count (must equal n)
//   32      4*n   label plane
//   end     4     CRC-32 (IEEE) over every preceding byte
//
// Same durability discipline as GCKP: atomic temp+rename writes, and a
// total loader (alloc-guarded, CRC-checked, semantic label-range checks)
// that reports every corruption as a distinct kDataLoss diagnosis.

/// One serialisable sparse-solver state.
struct SparseCheckpointData {
  std::uint32_t n = 0;          ///< node count
  std::uint32_t round = 0;      ///< next hook/shortcut round to execute
  std::uint64_t graph_hash = 0; ///< CsrGraph::content_hash of the input
  std::vector<std::uint32_t> labels;  ///< label plane, n entries

  friend bool operator==(const SparseCheckpointData&,
                         const SparseCheckpointData&) = default;
};

/// The on-disk GSKP encoding of `data` (header + label plane + CRC).
[[nodiscard]] std::string serialize_sparse_checkpoint(
    const SparseCheckpointData& data);

/// Inverse of `serialize_sparse_checkpoint` with full validation: returns
/// kDataLoss with a diagnosis on any corruption (bad magic/version, size
/// mismatch, truncation, CRC failure, labels violating the lattice
/// invariant label[v] <= v); `out` is only written on success.  Never
/// throws on malformed input.
[[nodiscard]] Status parse_sparse_checkpoint(const std::string& bytes,
                                             SparseCheckpointData& out);

/// Atomically writes `data` to `path` (temp file + rename).  Returns
/// kInternal with the OS diagnosis when the filesystem refuses.
[[nodiscard]] Status save_sparse_checkpoint_file(
    const std::string& path, const SparseCheckpointData& data);

/// Loads and validates a GSKP file.  kNotFound when no file exists (the
/// normal cold-start case), kDataLoss for a torn or tampered file.
[[nodiscard]] Status load_sparse_checkpoint_file(const std::string& path,
                                                 SparseCheckpointData& out);

/// The GSKP filename used inside a `--checkpoint-dir` directory.  Distinct
/// from the dense `hirschberg.ckpt`, so a directory can serve either
/// substrate without the loaders tripping over each other's artifacts.
[[nodiscard]] std::string sparse_checkpoint_path_in(const std::string& dir);

/// Create-or-fail-fast validation of a checkpoint directory: creates the
/// directory (and missing parents) when absent, and returns
/// kInvalidArgument with the OS diagnosis when the path cannot become a
/// writable directory (exists as a file, uncreatable parent, permission).
/// Callers run this *before* any work so a misconfigured directory yields
/// one clean Status up front instead of a write error deep inside the
/// atomic temp+rename path on every checkpoint boundary.
[[nodiscard]] Status ensure_checkpoint_dir(const std::string& dir);

}  // namespace gcalib::core
