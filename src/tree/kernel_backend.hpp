// Pluggable force-kernel backends draining staged interaction lists.
//
// This is the paper's traversal/evaluation split (§III-A, §VI-A): the group
// walk no longer evaluates forces inline but *emits* interaction lists —
// (target-group × accepted-cell) and (target-group × leaf-particle) records —
// into an InteractionQueue, and a kernel backend burns the staged batches
// down as wide, regular FLOPs over structure-of-arrays buffers. The same
// seam is where a CUDA/SYCL backend drops in later: the queue is the host
// side of the device interaction buffer, the drain is the kernel launch.
//
// Backends:
//   scalar     — replays today's pp_kernel/pc_kernel per staged interaction,
//                in staged order: the correctness reference.
//   simd       — dense double-precision SoA drains, #pragma omp simd loops
//                multiversioned per ISA (AVX-512, AVX2, baseline).
//   simd-float — the paper's single-precision device path: float sources and
//                float batch arithmetic, accumulated into the double target
//                arrays once per batch.
//
// The SIMD drains have two lane shapes. p-c puts one *target* per lane (the
// GPU's one-thread-per-target shape): targets are tiled to the lane width
// and each cell is broadcast, so cell runs need no padding and a partial
// tile's spare lanes are computed but never written back. p-p puts one
// *source* per lane: leaf runs are padded with inert sources (zero mass,
// far-away position) and the self-pair is masked per lane instead of
// branched around, so the inner loops are branch-free. InteractionStats
// carries both the useful and the padded interaction counts
// (util/flops.hpp) so the Gflop/s accounting stays honest.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "tree/octree.hpp"
#include "tree/particle.hpp"
#include "util/flops.hpp"

namespace bonsai {

enum class KernelBackend : std::uint8_t {
  kScalar = 0,
  kSimd = 1,
  kSimdFloat = 2,
};

// Stable CLI / wire / report names: "scalar", "simd", "simd-float".
const char* kernel_backend_name(KernelBackend backend);
std::optional<KernelBackend> kernel_backend_from_name(std::string_view name);

// SIMD lane width: the p-c target tile and the p-p leaf-run padding.
// 8 doubles = one AVX-512 vector (two AVX2).
inline constexpr std::size_t kKernelBatchPad = 8;

// Per-walk parameters shared by every batch of one group walk.
struct WalkParams {
  double eps2 = 0.0;
  bool quadrupole = true;
  bool self = false;  // targets alias the source particle array
};

// Staging queue for one worker thread. Usage per target group:
//
//   queue.begin_walk(src, targets, params, backend, target_begin, target_end);
//   ... push_cell / push_leaf while walking ...
//   InteractionStats s = queue.finish_walk();
//
// Staged data persists across walks (one drain can cover several groups);
// when the staged source slots exceed `capacity` the queue flushes — drains
// every pending batch through the backend and resets the buffers — so the
// staging memory stays bounded no matter how deep a walk opens the tree.
class InteractionQueue {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;

  explicit InteractionQueue(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void begin_walk(const TreeView& src, ParticleSet& targets, const WalkParams& params,
                  KernelBackend backend, std::uint32_t target_begin,
                  std::uint32_t target_end);

  // Stage one MAC-accepted cell (internal node or multipole leaf) against the
  // current walk's target range.
  void push_cell(const TreeNode& node);

  // Stage an opened particle leaf's source particles against the current
  // walk's target range.
  void push_leaf(const TreeNode& leaf);

  // Close the current walk's batches, drain everything still staged and
  // return (and reset) the interaction statistics accumulated since
  // begin_walk. The queue is reusable afterwards.
  InteractionStats finish_walk();

  std::size_t capacity() const { return capacity_; }

 private:
  struct Batch {
    std::uint32_t target_begin = 0, target_end = 0;
    std::uint32_t begin = 0;         // staged-slot range [begin, end)
    std::uint32_t end = 0;           // useful slots
    std::uint32_t padded_end = 0;    // end of the padded range (leaf runs)
    std::uint64_t self_pairs = 0;    // masked self-interactions (leaf batches)
  };

  void close_cell_run();
  void close_leaf_run();
  void flush();
  void drain_cell_batch(const Batch& b) const;
  void drain_leaf_batch(const Batch& b) const;
  void pad_leaves();

  std::size_t capacity_;

  // Walk context (set by begin_walk).
  TreeView src_{};
  ParticleSet* targets_ = nullptr;
  WalkParams params_{};
  KernelBackend backend_ = KernelBackend::kSimd;
  std::uint32_t target_begin_ = 0, target_end_ = 0;
  std::uint32_t cell_run_begin_ = 0, leaf_run_begin_ = 0;

  // Staged cell SoA: COM, mass and the six unique quadrupole entries
  // (order xx, xy, xz, yy, yz, zz, matching Quadrupole::q).
  std::vector<double> cx_, cy_, cz_, cm_;
  std::vector<double> cq_[6];
  std::vector<float> fcx_, fcy_, fcz_, fcm_;
  std::vector<float> fcq_[6];

  // Staged leaf-particle SoA. sidx_ holds the source's global particle index
  // for self-masking; kInvalidSource for non-self walks and padding lanes.
  std::vector<double> sx_, sy_, sz_, sm_;
  std::vector<float> fsx_, fsy_, fsz_, fsm_;
  std::vector<std::uint32_t> sidx_;

  std::vector<Batch> cell_batches_, leaf_batches_;
  InteractionStats stats_{};
};

}  // namespace bonsai
