#include "tree/kernel_backend.hpp"

#include <algorithm>
#include <cmath>

#include "tree/kernels.hpp"
#include "util/check.hpp"

namespace bonsai {

namespace {

// Inert padding source for leaf runs: zero mass at a far-away position, so
// padded lanes contribute exactly zero without dividing by zero (finite in
// float too).
constexpr double kPadPos = 1e15;

// Source index that never equals a target index: non-self walks and padding
// lanes use it so the self-mask compare stays uniform and never fires.
constexpr std::uint32_t kInvalidSource = 0xffffffffu;

std::size_t pad_to(std::size_t n) {
  return (n + kKernelBatchPad - 1) / kKernelBatchPad * kKernelBatchPad;
}

// The vectorized drains. They are namespace-scope free functions (not
// members) so that both gcc and clang accept the multiversioning attribute:
// each is compiled for AVX-512, AVX2, FMA (gcc splits "avx2,fma" into two
// clones) and the portable baseline, and the loader binds the best clone
// for the running CPU. The loop bodies are always_inline templates so every
// clone re-vectorizes them for its ISA. The scalar replay stays outside the
// clones: it is the bitwise reference.
namespace drain {

// ThreadSanitizer instruments the ifunc resolver, which the loader runs
// before the TSan runtime exists (a segfault at start-up with gcc 12), so a
// TSan build drains through the baseline code only.
#if defined(__SANITIZE_THREAD__)
#define BNS_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BNS_TSAN_BUILD 1
#endif
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && !defined(BNS_TSAN_BUILD)
#define BNS_DRAIN_CLONES __attribute__((target_clones("avx512f", "avx2,fma", "default")))
#else
#define BNS_DRAIN_CLONES
#endif

// Staged cell moments (COM, mass, quadrupole xx, xy, xz, yy, yz, zz).
template <typename T>
struct CellSoA {
  const T *x, *y, *z, *m;
  const T* q[6];
};

// Staged leaf sources plus their global index for the self-mask.
template <typename T>
struct LeafSoA {
  const T *x, *y, *z, *m;
  const std::uint32_t* idx;
};

// The targets [begin, end) of one batch: positions read, forces accumulated.
struct TargetSpan {
  ParticleSet* t;
  std::uint32_t begin, end;
};

// p-c, one target per lane (the GPU's one-thread-per-target shape): targets
// are tiled kKernelBatchPad at a time and each cell's moments are broadcast
// to every lane, so no horizontal reduction is needed and the cell run needs
// no padding. Pad lanes of a partial tile repeat the last real target (so
// they stay finite) and are never written back.
template <typename T>
[[gnu::always_inline]] inline void cell_tiles(const CellSoA<T>& c, std::uint32_t begin,
                                              std::uint32_t end, const TargetSpan& span,
                                              T eps2) {
  constexpr std::uint32_t kLanes = kKernelBatchPad;
  ParticleSet& t = *span.t;
  for (std::uint32_t i0 = span.begin; i0 < span.end; i0 += kLanes) {
    const std::uint32_t live = std::min(kLanes, span.end - i0);
    alignas(64) T tx[kLanes], ty[kLanes], tz[kLanes];
    alignas(64) T ax[kLanes] = {}, ay[kLanes] = {}, az[kLanes] = {}, pot[kLanes] = {};
    for (std::uint32_t l = 0; l < kLanes; ++l) {
      const std::uint32_t i = i0 + std::min(l, live - 1);
      tx[l] = static_cast<T>(t.x[i]);
      ty[l] = static_cast<T>(t.y[i]);
      tz[l] = static_cast<T>(t.z[i]);
    }
    for (std::uint32_t j = begin; j < end; ++j) {
      const T cx = c.x[j], cy = c.y[j], cz = c.z[j], cm = c.m[j];
      const T q0 = c.q[0][j], q1 = c.q[1][j], q2 = c.q[2][j];
      const T q3 = c.q[3][j], q4 = c.q[4][j], q5 = c.q[5][j];
      const T trq = q0 + q3 + q5;
#pragma omp simd
      for (std::uint32_t l = 0; l < kLanes; ++l) {
        const T dx = cx - tx[l];
        const T dy = cy - ty[l];
        const T dz = cz - tz[l];
        const T r2 = dx * dx + dy * dy + dz * dz + eps2;
        const T rinv = T(1) / std::sqrt(r2);
        const T rinv2 = rinv * rinv;
        const T rinv3 = rinv * rinv2;
        const T rinv5 = rinv3 * rinv2;
        const T rinv7 = rinv5 * rinv2;
        const T qx = q0 * dx + q1 * dy + q2 * dz;
        const T qy = q1 * dx + q3 * dy + q4 * dz;
        const T qz = q2 * dx + q4 * dy + q5 * dz;
        const T rqr = dx * qx + dy * qy + dz * qz;
        pot[l] += -cm * rinv + T(0.5) * trq * rinv3 - T(1.5) * rqr * rinv5;
        const T s = cm * rinv3 - T(1.5) * trq * rinv5 + T(7.5) * rqr * rinv7;
        ax[l] += s * dx - T(3) * rinv5 * qx;
        ay[l] += s * dy - T(3) * rinv5 * qy;
        az[l] += s * dz - T(3) * rinv5 * qz;
      }
    }
    for (std::uint32_t l = 0; l < live; ++l) {
      t.ax[i0 + l] += static_cast<double>(ax[l]);
      t.ay[i0 + l] += static_cast<double>(ay[l]);
      t.az[i0 + l] += static_cast<double>(az[l]);
      t.pot[i0 + l] += static_cast<double>(pot[l]);
    }
  }
}

// p-p, one source per lane: each target reduces over the padded source run.
// The self lane is masked branch-free: zero mass and a biased r2, so the
// reciprocal square root stays finite even at eps = 0.
template <typename T>
[[gnu::always_inline]] inline void leaf_rows(const LeafSoA<T>& s, std::uint32_t begin,
                                             std::uint32_t padded_end,
                                             const TargetSpan& span, T eps2) {
  ParticleSet& t = *span.t;
  // Plain local pointers: the vectorizer cannot hoist member loads itself.
  const T* const sx = s.x;
  const T* const sy = s.y;
  const T* const sz = s.z;
  const T* const sm = s.m;
  const std::uint32_t* const sidx = s.idx;
  for (std::uint32_t i = span.begin; i < span.end; ++i) {
    const T tx = static_cast<T>(t.x[i]);
    const T ty = static_cast<T>(t.y[i]);
    const T tz = static_cast<T>(t.z[i]);
    T ax = 0, ay = 0, az = 0, pot = 0;
#pragma omp simd reduction(+ : ax, ay, az, pot)
    for (std::uint32_t j = begin; j < padded_end; ++j) {
      const T keep = sidx[j] == i ? T(0) : T(1);
      const T dx = sx[j] - tx;
      const T dy = sy[j] - ty;
      const T dz = sz[j] - tz;
      const T r2 = dx * dx + dy * dy + dz * dz + eps2 + (T(1) - keep);
      const T rinv = T(1) / std::sqrt(r2);
      const T m = sm[j] * keep;
      const T mr3 = m * rinv * rinv * rinv;
      ax += mr3 * dx;
      ay += mr3 * dy;
      az += mr3 * dz;
      pot -= m * rinv;
    }
    t.ax[i] += static_cast<double>(ax);
    t.ay[i] += static_cast<double>(ay);
    t.az[i] += static_cast<double>(az);
    t.pot[i] += static_cast<double>(pot);
  }
}

BNS_DRAIN_CLONES void cells_f64(const CellSoA<double>& c, std::uint32_t begin,
                                std::uint32_t end, const TargetSpan& span, double eps2) {
  cell_tiles(c, begin, end, span, eps2);
}

BNS_DRAIN_CLONES void cells_f32(const CellSoA<float>& c, std::uint32_t begin,
                                std::uint32_t end, const TargetSpan& span, float eps2) {
  cell_tiles(c, begin, end, span, eps2);
}

BNS_DRAIN_CLONES void leaves_f64(const LeafSoA<double>& s, std::uint32_t begin,
                                 std::uint32_t padded_end, const TargetSpan& span,
                                 double eps2) {
  leaf_rows(s, begin, padded_end, span, eps2);
}

BNS_DRAIN_CLONES void leaves_f32(const LeafSoA<float>& s, std::uint32_t begin,
                                 std::uint32_t padded_end, const TargetSpan& span,
                                 float eps2) {
  leaf_rows(s, begin, padded_end, span, eps2);
}

#undef BNS_DRAIN_CLONES
#undef BNS_TSAN_BUILD

}  // namespace drain
}  // namespace

const char* kernel_backend_name(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kSimd: return "simd";
    case KernelBackend::kSimdFloat: return "simd-float";
  }
  return "unknown";
}

std::optional<KernelBackend> kernel_backend_from_name(std::string_view name) {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "simd") return KernelBackend::kSimd;
  if (name == "simd-float") return KernelBackend::kSimdFloat;
  return std::nullopt;
}

void InteractionQueue::begin_walk(const TreeView& src, ParticleSet& targets,
                                  const WalkParams& params, KernelBackend backend,
                                  std::uint32_t target_begin, std::uint32_t target_end) {
  BNS_CHECK(targets_ == nullptr, "finish_walk() must close the previous walk");
  src_ = src;
  targets_ = &targets;
  params_ = params;
  backend_ = backend;
  target_begin_ = target_begin;
  target_end_ = target_end;
  cell_run_begin_ = static_cast<std::uint32_t>(cx_.size());
  leaf_run_begin_ = static_cast<std::uint32_t>(sx_.size());
}

void InteractionQueue::push_cell(const TreeNode& node) {
  if (cx_.size() + sx_.size() >= capacity_) flush();
  const Multipole& mp = node.mp;
  cx_.push_back(mp.com.x);
  cy_.push_back(mp.com.y);
  cz_.push_back(mp.com.z);
  cm_.push_back(mp.mass);
  for (int k = 0; k < 6; ++k) cq_[k].push_back(params_.quadrupole ? mp.quad.q[k] : 0.0);
  if (backend_ == KernelBackend::kSimdFloat) {
    fcx_.push_back(static_cast<float>(mp.com.x));
    fcy_.push_back(static_cast<float>(mp.com.y));
    fcz_.push_back(static_cast<float>(mp.com.z));
    fcm_.push_back(static_cast<float>(mp.mass));
    for (int k = 0; k < 6; ++k)
      fcq_[k].push_back(params_.quadrupole ? static_cast<float>(mp.quad.q[k]) : 0.0f);
  }
}

void InteractionQueue::push_leaf(const TreeNode& leaf) {
  const std::size_t count = leaf.part_end - leaf.part_begin;
  if (count == 0) return;
  if (cx_.size() + sx_.size() + count >= capacity_ &&
      (sx_.size() > leaf_run_begin_ || cx_.size() > cell_run_begin_ ||
       !cell_batches_.empty() || !leaf_batches_.empty()))
    flush();
  for (std::uint32_t j = leaf.part_begin; j < leaf.part_end; ++j) {
    sx_.push_back(src_.x[j]);
    sy_.push_back(src_.y[j]);
    sz_.push_back(src_.z[j]);
    sm_.push_back(src_.m[j]);
    sidx_.push_back(params_.self ? j : kInvalidSource);
    if (backend_ == KernelBackend::kSimdFloat) {
      fsx_.push_back(static_cast<float>(src_.x[j]));
      fsy_.push_back(static_cast<float>(src_.y[j]));
      fsz_.push_back(static_cast<float>(src_.z[j]));
      fsm_.push_back(static_cast<float>(src_.m[j]));
    }
  }
}

void InteractionQueue::pad_leaves() {
  const std::size_t padded = pad_to(sx_.size());
  while (sx_.size() < padded) {
    sx_.push_back(kPadPos);
    sy_.push_back(kPadPos);
    sz_.push_back(kPadPos);
    sm_.push_back(0.0);
    sidx_.push_back(kInvalidSource);
    if (backend_ == KernelBackend::kSimdFloat) {
      fsx_.push_back(static_cast<float>(kPadPos));
      fsy_.push_back(static_cast<float>(kPadPos));
      fsz_.push_back(static_cast<float>(kPadPos));
      fsm_.push_back(0.0f);
    }
  }
}

void InteractionQueue::close_cell_run() {
  const std::uint32_t end = static_cast<std::uint32_t>(cx_.size());
  if (end == cell_run_begin_) return;
  Batch b;
  b.target_begin = target_begin_;
  b.target_end = target_end_;
  b.begin = cell_run_begin_;
  b.end = end;
  const std::uint64_t nt = b.target_end - b.target_begin;
  const std::uint64_t cells = b.end - b.begin;
  const std::uint64_t useful = cells * nt;
  stats_.p2c += useful;
  // The SIMD drains tile the targets (not the cells) to the lane width.
  stats_.p2c_padded += backend_ == KernelBackend::kScalar ? useful : cells * pad_to(nt);
  stats_.pc_batches += 1;
  stats_.observe_batch(useful);
  cell_batches_.push_back(b);
  cell_run_begin_ = static_cast<std::uint32_t>(cx_.size());
}

void InteractionQueue::close_leaf_run() {
  const std::uint32_t end = static_cast<std::uint32_t>(sx_.size());
  if (end == leaf_run_begin_) return;
  Batch b;
  b.target_begin = target_begin_;
  b.target_end = target_end_;
  b.begin = leaf_run_begin_;
  b.end = end;
  if (params_.self) {
    // Self-pairs in this run: staged sources whose global index falls inside
    // the target range. They are masked lanes, not useful interactions.
    for (std::uint32_t s = b.begin; s < b.end; ++s)
      if (sidx_[s] >= target_begin_ && sidx_[s] < target_end_ &&
          sidx_[s] != kInvalidSource)
        ++b.self_pairs;
  }
  if (backend_ == KernelBackend::kScalar) {
    b.padded_end = end;
  } else {
    pad_leaves();
    b.padded_end = static_cast<std::uint32_t>(sx_.size());
  }
  const std::uint64_t nt = b.target_end - b.target_begin;
  const std::uint64_t useful =
      static_cast<std::uint64_t>(b.end - b.begin) * nt - b.self_pairs;
  stats_.p2p += useful;
  // The scalar replay skips self-pairs the way the inline walk does; the SIMD
  // paths evaluate every padded lane and mask, so the pad count includes both
  // the alignment lanes and the masked self-pairs.
  stats_.p2p_padded += backend_ == KernelBackend::kScalar
                           ? useful
                           : static_cast<std::uint64_t>(b.padded_end - b.begin) * nt;
  stats_.pp_batches += 1;
  stats_.observe_batch(useful);
  leaf_batches_.push_back(b);
  leaf_run_begin_ = static_cast<std::uint32_t>(sx_.size());
}

InteractionStats InteractionQueue::finish_walk() {
  BNS_CHECK(targets_ != nullptr, "finish_walk() without begin_walk()");
  close_cell_run();
  close_leaf_run();
  flush();
  targets_ = nullptr;
  InteractionStats out = stats_;
  stats_ = InteractionStats{};
  return out;
}

void InteractionQueue::flush() {
  if (targets_ == nullptr) return;
  close_cell_run();
  close_leaf_run();
  for (const Batch& b : cell_batches_) drain_cell_batch(b);
  for (const Batch& b : leaf_batches_) drain_leaf_batch(b);
  cell_batches_.clear();
  leaf_batches_.clear();
  cx_.clear();
  cy_.clear();
  cz_.clear();
  cm_.clear();
  for (auto& q : cq_) q.clear();
  fcx_.clear();
  fcy_.clear();
  fcz_.clear();
  fcm_.clear();
  for (auto& q : fcq_) q.clear();
  sx_.clear();
  sy_.clear();
  sz_.clear();
  sm_.clear();
  sidx_.clear();
  fsx_.clear();
  fsy_.clear();
  fsz_.clear();
  fsm_.clear();
  cell_run_begin_ = 0;
  leaf_run_begin_ = 0;
}

void InteractionQueue::drain_cell_batch(const Batch& b) const {
  ParticleSet& t = *targets_;
  const double eps2 = params_.eps2;

  if (backend_ == KernelBackend::kScalar) {
    // Straight replay of the inline walk's kernels, in staged (stack) order:
    // cell-outer, target-inner, exactly like apply_cell once did.
    for (std::uint32_t j = b.begin; j < b.end; ++j) {
      Multipole mp;
      mp.mass = cm_[j];
      mp.com = {cx_[j], cy_[j], cz_[j]};
      for (int k = 0; k < 6; ++k) mp.quad.q[k] = cq_[k][j];
      for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
        ForceAccum<double> f{};
        if (params_.quadrupole) {
          pc_kernel(t.pos(i), mp, eps2, f);
        } else {
          pc_kernel_monopole(t.pos(i), mp, eps2, f);
        }
        t.ax[i] += f.ax;
        t.ay[i] += f.ay;
        t.az[i] += f.az;
        t.pot[i] += f.pot;
      }
    }
    return;
  }

  const drain::TargetSpan targets{&t, b.target_begin, b.target_end};
  if (backend_ == KernelBackend::kSimd) {
    drain::cells_f64({cx_.data(), cy_.data(), cz_.data(), cm_.data(),
                      {cq_[0].data(), cq_[1].data(), cq_[2].data(), cq_[3].data(),
                       cq_[4].data(), cq_[5].data()}},
                     b.begin, b.end, targets, eps2);
  } else {
    drain::cells_f32({fcx_.data(), fcy_.data(), fcz_.data(), fcm_.data(),
                      {fcq_[0].data(), fcq_[1].data(), fcq_[2].data(), fcq_[3].data(),
                       fcq_[4].data(), fcq_[5].data()}},
                     b.begin, b.end, targets, static_cast<float>(eps2));
  }
}

void InteractionQueue::drain_leaf_batch(const Batch& b) const {
  ParticleSet& t = *targets_;
  const double eps2 = params_.eps2;

  if (backend_ == KernelBackend::kScalar) {
    for (std::uint32_t i = b.target_begin; i < b.target_end; ++i) {
      const double tx = t.x[i], ty = t.y[i], tz = t.z[i];
      ForceAccum<double> f{};
      for (std::uint32_t j = b.begin; j < b.end; ++j) {
        if (sidx_[j] == i) continue;  // exact self-interaction
        pp_kernel<double>(tx, ty, tz, sx_[j], sy_[j], sz_[j], sm_[j], eps2, f);
      }
      t.ax[i] += f.ax;
      t.ay[i] += f.ay;
      t.az[i] += f.az;
      t.pot[i] += f.pot;
    }
    return;
  }

  const drain::TargetSpan targets{&t, b.target_begin, b.target_end};
  if (backend_ == KernelBackend::kSimd) {
    drain::leaves_f64({sx_.data(), sy_.data(), sz_.data(), sm_.data(), sidx_.data()}, b.begin,
                      b.padded_end, targets, eps2);
  } else {
    drain::leaves_f32({fsx_.data(), fsy_.data(), fsz_.data(), fsm_.data(), sidx_.data()},
                      b.begin, b.padded_end, targets, static_cast<float>(eps2));
  }
}

}  // namespace bonsai
