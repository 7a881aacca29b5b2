#pragma once
// Internal per-kernel function-pointer tables behind the runtime SIMD
// dispatch (ISSUE 9). Public code never includes this; the public entry
// points in gemm.h / spike_kernels.h / spike_packed.h / epilogue.h pick a
// table from active_simd() + kernel_config() and jump through it.
//
// Layout: one table per SimdLevel per subsystem. The AVX2 tables are
// defined in the -mavx2 -mfma translation units (gemm_avx2.cpp,
// simd_avx2.cpp) and only when SNNSKIP_HAVE_AVX2 is set; otherwise the
// accessors alias the scalar tables so dispatch never needs a null check.

#include <cstdint>

#include "tensor/cpu_features.h"
#include "tensor/im2col.h"
#include "tensor/spike_csr.h"
#include "tensor/workspace.h"

namespace snnskip::simd {

// ---- GEMM ------------------------------------------------------------------

/// Legal register tiles for the GEMM microkernel. Nr is a multiple of 8 so
/// every tile has an AVX2 twin; Mr*Nr/8 + Nr/8 + 1 stays within 16 YMM
/// registers. Index 0 is the historic default.
struct GemmTile {
  int mr;
  int nr;
};
inline constexpr GemmTile kGemmTiles[] = {
    {4, 16}, {6, 16}, {8, 8}, {4, 8}, {6, 8}};
inline constexpr int kNumGemmTiles =
    static_cast<int>(sizeof(kGemmTiles) / sizeof(kGemmTiles[0]));

/// Index of (mr, nr) in kGemmTiles, or -1.
inline int gemm_tile_index(int mr, int nr) {
  for (int i = 0; i < kNumGemmTiles; ++i) {
    if (kGemmTiles[i].mr == mr && kGemmTiles[i].nr == nr) return i;
  }
  return -1;
}

/// Legal GEMM K-panel lengths (cache blocks) the tuner may pick.
inline constexpr int kGemmKcChoices[] = {64, 128, 256, 512};
inline constexpr int kNumGemmKcChoices =
    static_cast<int>(sizeof(kGemmKcChoices) / sizeof(kGemmKcChoices[0]));

/// Legal transpose tile edges.
inline constexpr int kTransposeTileChoices[] = {16, 32, 64, 128};
inline constexpr int kNumTransposeTileChoices = static_cast<int>(
    sizeof(kTransposeTileChoices) / sizeof(kTransposeTileChoices[0]));

using GemmDriverFn = void (*)(std::int64_t m, std::int64_t n, std::int64_t k,
                              float alpha, const float* a, const float* b,
                              float beta, float* c, std::int64_t kc);
using GemmNtFn = void (*)(std::int64_t m, std::int64_t n, std::int64_t k,
                          float alpha, const float* a, const float* b,
                          float beta, float* c);

struct GemmKernels {
  GemmDriverFn nn[kNumGemmTiles];
  GemmDriverFn tn[kNumGemmTiles];
  GemmNtFn nt;
};

const GemmKernels* gemm_kernels_scalar();
const GemmKernels* gemm_kernels_avx2();
const GemmKernels* gemm_kernels_avx2fma();

inline const GemmKernels* gemm_kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::Avx2: return gemm_kernels_avx2();
    case SimdLevel::Avx2Fma: return gemm_kernels_avx2fma();
    case SimdLevel::Scalar: break;
  }
  return gemm_kernels_scalar();
}

// ---- Spike / packed / transpose / epilogue kernels -------------------------

struct SpikeKernels {
  void (*conv2d_forward)(const ConvGeometry&, const SpikeCsr&, const float*,
                         const float*, std::int64_t, float*, Workspace&);
  void (*linear_forward)(const SpikeCsr&, const float*, const float*,
                         std::int64_t, float*, Workspace&);
  void (*depthwise_forward)(const ConvGeometry&, const SpikeCsr&,
                            const float*, const float*, float*);
  void (*conv2d_backward_weight)(const ConvGeometry&, const SpikeCsr&,
                                 const float*, std::int64_t, float*,
                                 Workspace&);
  void (*linear_backward_weight)(const SpikeCsr&, const float*, std::int64_t,
                                 float*, Workspace&);
  void (*depthwise_backward_weight)(const ConvGeometry&, const SpikeCsr&,
                                    const float*, float*);
  void (*transpose)(const float*, std::int64_t, std::int64_t, float*,
                    std::int64_t tile);
  void (*transpose_add)(const float*, std::int64_t, std::int64_t, float*,
                        std::int64_t tile);
  std::int64_t (*count_nonzero)(const float*, std::int64_t);
  std::int64_t (*packed_conv2d_term)(const ConvGeometry&, std::int64_t,
                                     const std::uint64_t*,
                                     const std::int32_t*, const float*,
                                     std::int64_t, float*);
  std::int64_t (*packed_depthwise_term)(const ConvGeometry&, std::int64_t,
                                        const std::uint64_t*,
                                        const std::int32_t*, const float*,
                                        float*);
  std::int64_t (*lif_row)(std::int64_t p, const float* acc, int use_scale,
                          float scale, float bias, float beta, float theta,
                          float* m, float* dst, std::uint64_t* wbits,
                          std::int64_t bit0);
  void (*affine_row)(std::int64_t p, const float* acc, int use_scale,
                     float scale, float bias, int relu, float* dst);
};

const SpikeKernels* spike_kernels_scalar();
const SpikeKernels* spike_kernels_avx2();
const SpikeKernels* spike_kernels_avx2fma();

inline const SpikeKernels* spike_kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::Avx2: return spike_kernels_avx2();
    case SimdLevel::Avx2Fma: return spike_kernels_avx2fma();
    case SimdLevel::Scalar: break;
  }
  return spike_kernels_scalar();
}

inline const SpikeKernels& spike_ops() {
  return *spike_kernels_for(active_simd());
}

// ---- Int8 quantized kernels (ISSUE 10) -------------------------------------
// One table: the int8 kernels are integer (bit-identical at every level),
// so there is no separate FMA variant — Avx2 and Avx2Fma share the AVX2
// instantiation.

struct QuantKernels {
  void (*quantize_row)(std::int64_t n, const float* src, float inv,
                       std::int8_t* dst);
  void (*i32_to_f32)(std::int64_t n, const std::int32_t* src, float* dst);
  void (*gemm_s8s32_nt)(std::int64_t m, std::int64_t n, std::int64_t k,
                        const std::int8_t* a, const std::int8_t* b,
                        std::int32_t* c);
  std::int64_t (*packed_conv2d_term)(const ConvGeometry&, std::int64_t,
                                     const std::uint64_t*,
                                     const std::int32_t*, const std::int8_t*,
                                     std::int64_t, std::int32_t*);
  std::int64_t (*packed_depthwise_term)(const ConvGeometry&, std::int64_t,
                                        const std::uint64_t*,
                                        const std::int32_t*,
                                        const std::int8_t*, std::int32_t*);
};

const QuantKernels* quant_kernels_scalar();
const QuantKernels* quant_kernels_avx2();

inline const QuantKernels* quant_kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::Avx2:
    case SimdLevel::Avx2Fma: return quant_kernels_avx2();
    case SimdLevel::Scalar: break;
  }
  return quant_kernels_scalar();
}

inline const QuantKernels& quant_ops() {
  return *quant_kernels_for(active_simd());
}

}  // namespace snnskip::simd
