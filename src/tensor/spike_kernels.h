#pragma once
// Event-driven forward and weight-gradient kernels for spiking activations.
//
// Rationale (ISSUE 1 / ISSUE 4, DESIGN.md "Performance: event-driven
// execution"): SNN passes convolve binary, mostly-zero tensors T times per
// sample. Instead of lowering to im2col + GEMM and multiplying by zeros,
// these kernels walk the packed spike events (SpikeCsr) and accumulate
// the corresponding weight rows directly — cost scales with the number of
// spikes, not the tensor volume. Work per spike:
//
//   conv2d     K*K taps, each an O-length contiguous axpy into a
//              (HoWo, O)-transposed output panel (transposed once at the
//              end, so the inner loop is unit-stride in both operands)
//   linear     one O-length axpy from a transposed weight panel
//   depthwise  K*K scalar taps into the channel's own output plane
//
// The BPTT backward reuses the forward input's SpikeCsr (saved in the
// layer Ctx, which also replaces the dense retained input) to drive the
// weight gradient — work ∝ nnz * K*K * O instead of O * CKK * HoWo. There
// is no event-driven dX: every conv/linear in the model families feeds
// BatchNormTT, whose train-mode backward hands it a dense gradient
// (DESIGN.md §5e), so dX is always gemm_tn + col2im (conv) or gemm
// (linear).
//
// Every backward kernel reproduces the dense path's per-output-element
// accumulation order exactly (increasing image, then increasing reduction
// index, products formed the same way), and parallel variants partition
// by OUTPUT ownership, so sparse and dense gradients agree bit-for-bit at
// any thread count. Skipped zero terms are IEEE no-ops: accumulators
// start at +0 and +0 + (-0) == +0 under round-to-nearest, so a signed
// zero can never propagate a difference.
//
// Dispatch: layers scan the input with SpikeCsr and take this path only
// when SparseExec::enabled() and density < SparseExec::threshold(); a
// forward that took it keeps its events for dW. Everything else (first
// encoder layer, BN outputs) falls back to the dense GEMM path unchanged.
// Scratch comes from the Workspace arena — steady-state timesteps allocate
// nothing.

#include <cstdint>

#include "tensor/im2col.h"
#include "tensor/spike_csr.h"
#include "tensor/workspace.h"

namespace snnskip {

/// Runtime switches for the sparse path. Defaults come from the
/// environment once at startup: SNNSKIP_SPARSE=0 disables it,
/// SNNSKIP_SPARSE_THRESHOLD=<frac> moves the density cutoff (default
/// 0.25). Setters exist for tests and benchmarks.
class SparseExec {
 public:
  static bool enabled();
  static float threshold();
  static void set_enabled(bool on);
  static void set_threshold(float t);

  /// Aggregate sparsity actually observed at sparse-eligible layer inputs.
  /// density() here is the same spikes-per-element definition used by
  /// FiringRateRecorder and EnergyModel::snn_energy_pj.
  struct Stats {
    double nnz = 0.0;
    double elements = 0.0;
    std::uint64_t sparse_calls = 0;
    std::uint64_t dense_calls = 0;
    double density() const { return elements > 0.0 ? nnz / elements : 0.0; }
  };
  static Stats stats();
  static void reset_stats();
  /// Called by the layers on every eligible forward.
  static void note(double nnz, double elements, bool took_sparse_path);

  /// Backward twin of stats()/note(): one dW dispatch per conv/linear/
  /// depthwise backward call, from the saved events or from the dense
  /// input (reset by reset_stats()). Only the call counts are kept — the
  /// events dW walks are the forward input's, whose density stats() has.
  static Stats bwd_stats();
  static void note_bwd(bool took_sparse_path);
};

/// Full-tensor nonzero count — the cheap sparsity scan behind the
/// sparse-vs-dense dispatch (one streaming pass, negligible next to any
/// kernel it gates).
std::int64_t count_nonzero(const float* data, std::int64_t n);

/// Cache-blocked transpose: dst(c, r) = src(r, c) for src of (rows, cols).
/// Tile edge comes from the kernel config (SNNSKIP_TUNE_PROFILE); the 8x8
/// AVX2 block kernel engages per the active SIMD level. Exact copies —
/// bit-identical across tile sizes and SIMD levels.
void transpose_panel(const float* src, std::int64_t rows, std::int64_t cols,
                     float* dst);

/// dst(c, r) += src(r, c); same tiling. Each element is touched exactly
/// once, so this too is order-free and exact.
void transpose_add_panel(const float* src, std::int64_t rows,
                         std::int64_t cols, float* dst);

/// True when the packed input should take the event-driven path.
inline bool use_sparse_path(const SpikeCsr& csr) {
  return SparseExec::enabled() &&
         csr.density() < static_cast<double>(SparseExec::threshold());
}

/// Event-driven Conv2d forward. `csr` packs the input as (N images,
/// C*H*W); `weight` is OIHW; `bias` may be null; `out` is (N, O, Ho, Wo).
void spike_conv2d_forward(const ConvGeometry& g, const SpikeCsr& csr,
                          const float* weight, const float* bias,
                          std::int64_t out_c, float* out, Workspace& ws);

/// Event-driven Linear forward. `csr` packs the input as (N, in_f);
/// `weight` is (out_f, in_f); `out` is (N, out_f).
void spike_linear_forward(const SpikeCsr& csr, const float* weight,
                          const float* bias, std::int64_t out_f, float* out,
                          Workspace& ws);

/// Event-driven depthwise conv forward. `csr` packs the input as
/// (N images, C*H*W); `weight` is (C, 1, K, K); `out` is (N, C, Ho, Wo).
void spike_depthwise_forward(const ConvGeometry& g, const SpikeCsr& csr,
                             const float* weight, const float* bias,
                             float* out);

// ---- BPTT backward (ISSUE 4) ----------------------------------------------

/// Conv2d weight gradient from the forward input's events. `csr` packs the
/// saved input as (N, C*H*W); `grad_out` is (N, O, Ho, Wo); ACCUMULATES
/// into `grad_weight` (O, C, K, K). Matches gemm_nt's per-image
/// partial-then-add accumulation bit-for-bit.
void spike_conv2d_backward_weight(const ConvGeometry& g, const SpikeCsr& csr,
                                  const float* grad_out, std::int64_t out_c,
                                  float* grad_weight, Workspace& ws);

/// Linear weight gradient from the forward input's events. `csr` packs the
/// saved input as (N, in_f); `grad_out` is (N, out_f); ACCUMULATES into
/// `grad_weight` (out_f, in_f) in gemm_tn's direct-onto-C order.
void spike_linear_backward_weight(const SpikeCsr& csr, const float* grad_out,
                                  std::int64_t out_f, float* grad_weight,
                                  Workspace& ws);

/// Depthwise weight gradient from the forward input's events. `csr` packs
/// the saved input as (N, C*H*W); `grad_out` is (N, C, Ho, Wo);
/// ACCUMULATES into `grad_weight` (C, 1, K, K).
void spike_depthwise_backward_weight(const ConvGeometry& g,
                                     const SpikeCsr& csr,
                                     const float* grad_out,
                                     float* grad_weight);

}  // namespace snnskip
