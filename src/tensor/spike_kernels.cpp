#include "tensor/spike_kernels.h"

#include <atomic>
#include <mutex>

#include "telemetry/telemetry.h"
#include "tensor/epilogue.h"
#include "tensor/kernel_config.h"
#include "tensor/simd_ops.h"
#include "tensor/spike_kernels_impl.h"
#include "util/runtime_env.h"

namespace snnskip {

namespace {

std::atomic<bool> g_enabled{env::get_bool("SNNSKIP_SPARSE", true)};

// -1 = "not explicitly set": threshold() then reads the resolved kernel
// config (defaults <- tuning profile <- SNNSKIP_SPARSE_THRESHOLD), lazily
// so static init never races the config load. set_threshold() pins an
// explicit value that wins over the config from then on.
std::atomic<float> g_threshold{-1.f};

std::mutex g_stats_mutex;
SparseExec::Stats g_stats;
SparseExec::Stats g_bwd_stats;

}  // namespace

bool SparseExec::enabled() { return g_enabled.load(std::memory_order_relaxed); }
float SparseExec::threshold() {
  const float t = g_threshold.load(std::memory_order_relaxed);
  return t >= 0.f ? t : kernel_config().sparse_threshold;
}
void SparseExec::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}
void SparseExec::set_threshold(float t) {
  g_threshold.store(t, std::memory_order_relaxed);
}

SparseExec::Stats SparseExec::stats() {
  std::lock_guard<std::mutex> lock(g_stats_mutex);
  return g_stats;
}

void SparseExec::reset_stats() {
  std::lock_guard<std::mutex> lock(g_stats_mutex);
  g_stats = Stats{};
  g_bwd_stats = Stats{};
}

SparseExec::Stats SparseExec::bwd_stats() {
  std::lock_guard<std::mutex> lock(g_stats_mutex);
  return g_bwd_stats;
}

void SparseExec::note_bwd(bool took_sparse_path) {
  Telemetry::count(took_sparse_path ? "dispatch.bwd.sparse"
                                    : "dispatch.bwd.dense");
  std::lock_guard<std::mutex> lock(g_stats_mutex);
  if (took_sparse_path) {
    ++g_bwd_stats.sparse_calls;
  } else {
    ++g_bwd_stats.dense_calls;
  }
}

void SparseExec::note(double nnz, double elements, bool took_sparse_path) {
  // Mirror every dispatch decision into the telemetry counters (no-ops
  // while telemetry is off) so traces carry sparse-vs-dense counts next to
  // the per-layer spans.
  Telemetry::count(took_sparse_path ? "dispatch.sparse" : "dispatch.dense");
  Telemetry::count("dispatch.nnz", nnz);
  Telemetry::count("dispatch.elements", elements);
  std::lock_guard<std::mutex> lock(g_stats_mutex);
  g_stats.nnz += nnz;
  g_stats.elements += elements;
  if (took_sparse_path) {
    ++g_stats.sparse_calls;
  } else {
    ++g_stats.dense_calls;
  }
}

// ---- Dispatch tables -------------------------------------------------------

namespace simd {

const SpikeKernels* spike_kernels_scalar() {
  static const SpikeKernels k = spike_impl::make_spike_table<false, false>();
  return &k;
}

#if !defined(SNNSKIP_HAVE_AVX2)
// AVX2 translation units not built (non-x86 target or the toolchain lacks
// -mavx2): alias the scalar table so dispatch never branches on a null.
const SpikeKernels* spike_kernels_avx2() { return spike_kernels_scalar(); }
const SpikeKernels* spike_kernels_avx2fma() { return spike_kernels_scalar(); }
#endif

}  // namespace simd

// ---- Public entry points (resolve table + schedule constants per call) -----

std::int64_t count_nonzero(const float* data, std::int64_t n) {
  return simd::spike_ops().count_nonzero(data, n);
}

void transpose_panel(const float* src, std::int64_t rows, std::int64_t cols,
                     float* dst) {
  simd::spike_ops().transpose(src, rows, cols, dst,
                              kernel_config().transpose_tile);
}

void transpose_add_panel(const float* src, std::int64_t rows,
                         std::int64_t cols, float* dst) {
  simd::spike_ops().transpose_add(src, rows, cols, dst,
                                  kernel_config().transpose_tile);
}

void spike_conv2d_forward(const ConvGeometry& g, const SpikeCsr& csr,
                          const float* weight, const float* bias,
                          std::int64_t out_c, float* out, Workspace& ws) {
  simd::spike_ops().conv2d_forward(g, csr, weight, bias, out_c, out, ws);
}

void spike_linear_forward(const SpikeCsr& csr, const float* weight,
                          const float* bias, std::int64_t out_f, float* out,
                          Workspace& ws) {
  simd::spike_ops().linear_forward(csr, weight, bias, out_f, out, ws);
}

void spike_depthwise_forward(const ConvGeometry& g, const SpikeCsr& csr,
                             const float* weight, const float* bias,
                             float* out) {
  simd::spike_ops().depthwise_forward(g, csr, weight, bias, out);
}

void spike_conv2d_backward_weight(const ConvGeometry& g, const SpikeCsr& csr,
                                  const float* grad_out, std::int64_t out_c,
                                  float* grad_weight, Workspace& ws) {
  simd::spike_ops().conv2d_backward_weight(g, csr, grad_out, out_c,
                                           grad_weight, ws);
}

void spike_linear_backward_weight(const SpikeCsr& csr, const float* grad_out,
                                  std::int64_t out_f, float* grad_weight,
                                  Workspace& ws) {
  simd::spike_ops().linear_backward_weight(csr, grad_out, out_f, grad_weight,
                                           ws);
}

void spike_depthwise_backward_weight(const ConvGeometry& g,
                                     const SpikeCsr& csr,
                                     const float* grad_out,
                                     float* grad_weight) {
  simd::spike_ops().depthwise_backward_weight(g, csr, grad_out, grad_weight);
}

std::int64_t lif_epilogue_row(std::int64_t p, const float* acc, int use_scale,
                              float scale, float bias, float beta, float theta,
                              float* m, float* dst, std::uint64_t* wbits,
                              std::int64_t bit0) {
  return simd::spike_ops().lif_row(p, acc, use_scale, scale, bias, beta,
                                   theta, m, dst, wbits, bit0);
}

void affine_epilogue_row(std::int64_t p, const float* acc, int use_scale,
                         float scale, float bias, int relu, float* dst) {
  simd::spike_ops().affine_row(p, acc, use_scale, scale, bias, relu, dst);
}

}  // namespace snnskip
