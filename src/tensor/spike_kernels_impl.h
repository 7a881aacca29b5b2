#pragma once
// Event-kernel bodies shared by the scalar and AVX2 translation units
// (ISSUE 9). spike_kernels.cpp instantiates everything with V=false;
// simd_avx2.cpp re-instantiates with V=true (and Fused=true for the
// Avx2Fma table) under -mavx2 -mfma -ffp-contract=off. The kernel
// structure is byte-for-byte the historic scalar code — only the innermost
// unit-stride loops route through the vector primitives below, each of
// which preserves the scalar per-element operation sequence exactly
// (unfused multiply+add per lane), so the V=true instantiations stay
// bit-identical to V=false. Fused=true single-rounds the multiply-adds and
// is never reachable from the deterministic training contracts.
//
// Template parameters: V = use AVX2 intrinsics in the primitives,
// F = fuse multiply-add (only meaningful with V).

#include <bit>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "parallel/parallel_for.h"
#include "tensor/im2col.h"
#include "tensor/kernel_config.h"
#include "tensor/simd_ops.h"
#include "tensor/spike_csr.h"
#include "tensor/workspace.h"

namespace snnskip::spike_impl {

// ---- Vector primitives -----------------------------------------------------

/// y[0..n) += a * x[0..n). The spike kernels' workhorse: one weight-row
/// accumulation per (event, tap).
template <bool V, bool F>
inline void axpy(std::int64_t n, float a, const float* __restrict x,
                 float* __restrict y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 av = _mm256_set1_ps(a);
    for (; i + 8 <= n; i += 8) {
      const __m256 xv = _mm256_loadu_ps(x + i);
      const __m256 yv = _mm256_loadu_ps(y + i);
      if constexpr (F) {
        _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, xv, yv));
      } else {
        _mm256_storeu_ps(y + i, _mm256_add_ps(yv, _mm256_mul_ps(av, xv)));
      }
    }
  }
#endif
  for (; i < n; ++i) y[i] += a * x[i];
}

/// y[0..n) += x[0..n). Pure adds (the packed binary-spike accumulation) —
/// no multiply, so fusion never applies and every level is bit-equal.
template <bool V>
inline void add_rows(std::int64_t n, const float* __restrict x,
                     float* __restrict y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(
          y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
    }
  }
#endif
  for (; i < n; ++i) y[i] += x[i];
}

/// y[0..n) += x[0..n) with x int8 widened to int32 — the int8 plans'
/// packed accumulation. Pure integer adds: every level is exactly equal.
template <bool V>
inline void add_rows(std::int64_t n, const std::int8_t* __restrict x,
                     std::int32_t* __restrict y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    for (; i + 8 <= n; i += 8) {
      const __m128i x8 =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
      __m256i yv = _mm256_loadu_si256(reinterpret_cast<__m256i*>(y + i));
      yv = _mm256_add_epi32(yv, _mm256_cvtepi8_epi32(x8));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), yv);
    }
  }
#endif
  for (; i < n; ++i) y[i] += x[i];
}

/// y[0..n) += a (scalar broadcast; the bias add after the output flip).
template <bool V>
inline void add_scalar(std::int64_t n, float a, float* __restrict y) {
  std::int64_t i = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 av = _mm256_set1_ps(a);
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), av));
    }
  }
#endif
  for (; i < n; ++i) y[i] += a;
}

// ---- Cache-blocked transpose (satellite: one templated helper) -------------

#if defined(__AVX2__)
/// 8x8 in-register transpose block: reads 8 rows of 8 at stride `scols`,
/// writes (or adds) the transpose as 8 rows at stride `dcols`. Exact
/// copies/adds — no reassociation anywhere.
template <bool Add>
inline void transpose_8x8_avx2(const float* src, std::int64_t scols,
                               float* dst, std::int64_t dcols) {
  __m256 r0 = _mm256_loadu_ps(src + 0 * scols);
  __m256 r1 = _mm256_loadu_ps(src + 1 * scols);
  __m256 r2 = _mm256_loadu_ps(src + 2 * scols);
  __m256 r3 = _mm256_loadu_ps(src + 3 * scols);
  __m256 r4 = _mm256_loadu_ps(src + 4 * scols);
  __m256 r5 = _mm256_loadu_ps(src + 5 * scols);
  __m256 r6 = _mm256_loadu_ps(src + 6 * scols);
  __m256 r7 = _mm256_loadu_ps(src + 7 * scols);
  __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
  __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
  __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
  __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
  __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  __m256 o[8];
  o[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  o[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  o[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  o[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  o[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  o[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  o[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  o[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
  for (int i = 0; i < 8; ++i) {
    float* d = dst + i * dcols;
    if constexpr (Add) {
      _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d), o[i]));
    } else {
      _mm256_storeu_ps(d, o[i]);
    }
  }
}
#endif  // __AVX2__

/// Cache-blocked transpose: dst(c, r) = src(r, c) (Add=false) or
/// dst(c, r) += src(r, c) (Add=true) for src of (rows, cols). The naive
/// loop strides one full row per write and misses on every store once the
/// panel outgrows L2 (e.g. a 512x2304 conv weight); `tile`-edge tiles keep
/// both sides inside a handful of cache lines. Each element is touched
/// exactly once, so tiling (and the 8x8 vector block) is order-free and
/// exact for any tile size.
template <bool V, bool Add>
void transpose_tiled(const float* src, std::int64_t rows, std::int64_t cols,
                     float* dst, std::int64_t tile) {
  for (std::int64_t r0 = 0; r0 < rows; r0 += tile) {
    const std::int64_t r1 = rows < r0 + tile ? rows : r0 + tile;
    for (std::int64_t c0 = 0; c0 < cols; c0 += tile) {
      const std::int64_t c1 = cols < c0 + tile ? cols : c0 + tile;
      std::int64_t r = r0;
#if defined(__AVX2__)
      if constexpr (V) {
        for (; r + 8 <= r1; r += 8) {
          std::int64_t c = c0;
          for (; c + 8 <= c1; c += 8) {
            transpose_8x8_avx2<Add>(src + r * cols + c, cols,
                                    dst + c * rows + r, rows);
          }
          for (std::int64_t rr = r; rr < r + 8; ++rr) {
            const float* s = src + rr * cols;
            for (std::int64_t cc = c; cc < c1; ++cc) {
              if constexpr (Add) {
                dst[cc * rows + rr] += s[cc];
              } else {
                dst[cc * rows + rr] = s[cc];
              }
            }
          }
        }
      }
#endif
      for (; r < r1; ++r) {
        const float* s = src + r * cols;
        for (std::int64_t c = c0; c < c1; ++c) {
          if constexpr (Add) {
            dst[c * rows + r] += s[c];
          } else {
            dst[c * rows + r] = s[c];
          }
        }
      }
    }
  }
}

/// Dispatch-friendly density scan.
template <bool V>
std::int64_t count_nonzero_impl(const float* data, std::int64_t n) {
  std::int64_t i = 0;
  std::int64_t nnz = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 zero = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
      const __m256 v = _mm256_loadu_ps(data + i);
      const unsigned mask = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ)));
      nnz += std::popcount(mask);
    }
  }
#endif
  for (; i < n; ++i) nnz += (data[i] != 0.f);
  return nnz;
}

// ---- CSR event kernels (bodies: see spike_kernels.h for contracts) ---------

template <bool V, bool F>
void conv2d_forward(const ConvGeometry& g, const SpikeCsr& csr,
                    const float* weight, const float* bias, std::int64_t out_c,
                    float* out, Workspace& ws) {
  const std::int64_t ckk = g.col_rows();
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t howo = ho * wo;
  const std::int64_t hw = g.in_h * g.in_w;
  const std::int64_t k = g.kernel, s = g.stride, pad = g.pad;
  const std::int64_t o_c = out_c;
  const std::int64_t tile = kernel_config().transpose_tile;

  auto scope = ws.scope();
  // Weight transposed to ((c,ky,kx), o) so the per-spike accumulation is a
  // unit-stride axpy of length O. Rebuilt per call: O(O*CKK) — negligible
  // next to the conv itself and immune to weight-update staleness.
  float* wt = scope.floats(static_cast<std::size_t>(ckk * o_c));
  transpose_tiled<V, false>(weight, o_c, ckk, wt, tile);
  // Output accumulated transposed as (HoWo, O), then flipped back once.
  float* outt = scope.floats(static_cast<std::size_t>(howo * o_c));

  for (std::int64_t img = 0; img < csr.rows(); ++img) {
    std::memset(outt, 0, static_cast<std::size_t>(howo * o_c) * sizeof(float));
    const std::int32_t* idx = csr.row_indices(img);
    const float* val = csr.row_values(img);
    const std::int64_t cnt = csr.row_nnz(img);
    for (std::int64_t e = 0; e < cnt; ++e) {
      const std::int64_t flat = idx[e];
      const float v = val[e];
      const std::int64_t c = flat / hw;
      const std::int64_t rem = flat - c * hw;
      const std::int64_t iy = rem / g.in_w;
      const std::int64_t ix = rem - iy * g.in_w;
      // Every kernel tap (ky,kx) that maps this input pixel onto a valid
      // output position receives one weight-row accumulation.
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t ty = iy + pad - ky;
        if (ty < 0 || ty % s != 0) continue;
        const std::int64_t oy = ty / s;
        if (oy >= ho) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t tx = ix + pad - kx;
          if (tx < 0 || tx % s != 0) continue;
          const std::int64_t ox = tx / s;
          if (ox >= wo) continue;
          const float* wrow = wt + ((c * k + ky) * k + kx) * o_c;
          float* orow = outt + (oy * wo + ox) * o_c;
          axpy<V, F>(o_c, v, wrow, orow);
        }
      }
    }
    // Flip (HoWo, O) back to (O, HoWo) and add the bias — exact copies
    // plus the same single add per element the row-wise loop performed.
    float* oimg = out + img * o_c * howo;
    transpose_tiled<V, false>(outt, howo, o_c, oimg, tile);
    for (std::int64_t o = 0; o < o_c; ++o) {
      add_scalar<V>(howo, bias != nullptr ? bias[o] : 0.f, oimg + o * howo);
    }
  }
}

template <bool V, bool F>
void linear_forward(const SpikeCsr& csr, const float* weight,
                    const float* bias, std::int64_t out_f, float* out,
                    Workspace& ws) {
  const std::int64_t in_f = csr.row_len();
  const std::int64_t tile = kernel_config().transpose_tile;
  auto scope = ws.scope();
  float* wt = scope.floats(static_cast<std::size_t>(in_f * out_f));
  transpose_tiled<V, false>(weight, out_f, in_f, wt, tile);
  for (std::int64_t i = 0; i < csr.rows(); ++i) {
    float* orow = out + i * out_f;
    if (bias != nullptr) {
      std::memcpy(orow, bias, static_cast<std::size_t>(out_f) * sizeof(float));
    } else {
      std::memset(orow, 0, static_cast<std::size_t>(out_f) * sizeof(float));
    }
    const std::int32_t* idx = csr.row_indices(i);
    const float* val = csr.row_values(i);
    const std::int64_t cnt = csr.row_nnz(i);
    for (std::int64_t e = 0; e < cnt; ++e) {
      const float* wrow = wt + static_cast<std::int64_t>(idx[e]) * out_f;
      axpy<V, F>(out_f, val[e], wrow, orow);
    }
  }
}

template <bool V, bool F>
void depthwise_forward(const ConvGeometry& g, const SpikeCsr& csr,
                       const float* weight, const float* bias, float* out) {
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t howo = ho * wo;
  const std::int64_t hw = g.in_h * g.in_w;
  const std::int64_t k = g.kernel, s = g.stride, pad = g.pad;
  const std::int64_t c_ = g.in_c;

  for (std::int64_t img = 0; img < csr.rows(); ++img) {
    float* oimg = out + img * c_ * howo;
    for (std::int64_t ch = 0; ch < c_; ++ch) {
      const float b = bias != nullptr ? bias[ch] : 0.f;
      float* plane = oimg + ch * howo;
      for (std::int64_t j = 0; j < howo; ++j) plane[j] = b;
    }
    const std::int32_t* idx = csr.row_indices(img);
    const float* val = csr.row_values(img);
    const std::int64_t cnt = csr.row_nnz(img);
    for (std::int64_t e = 0; e < cnt; ++e) {
      const std::int64_t flat = idx[e];
      const float v = val[e];
      const std::int64_t c = flat / hw;
      const std::int64_t rem = flat - c * hw;
      const std::int64_t iy = rem / g.in_w;
      const std::int64_t ix = rem - iy * g.in_w;
      const float* ker = weight + c * k * k;
      float* oplane = oimg + c * howo;
      // K*K scattered scalar taps — no contiguous run to vectorize.
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t ty = iy + pad - ky;
        if (ty < 0 || ty % s != 0) continue;
        const std::int64_t oy = ty / s;
        if (oy >= ho) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t tx = ix + pad - kx;
          if (tx < 0 || tx % s != 0) continue;
          const std::int64_t ox = tx / s;
          if (ox >= wo) continue;
          oplane[oy * wo + ox] += v * ker[ky * k + kx];
        }
      }
    }
  }
}

template <bool V, bool F>
void conv2d_backward_weight(const ConvGeometry& g, const SpikeCsr& csr,
                            const float* grad_out, std::int64_t out_c,
                            float* grad_weight, Workspace& ws) {
  const std::int64_t ckk = g.col_rows();
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t howo = ho * wo;
  const std::int64_t hw = g.in_h * g.in_w;
  const std::int64_t k = g.kernel, s = g.stride, pad = g.pad;
  const std::int64_t o_c = out_c;
  const std::int64_t tile = kernel_config().transpose_tile;

  auto scope = ws.scope();
  // grad_out transposed to (HoWo, O) once per image so the per-event tap
  // loop reads a unit-stride O-slice, mirroring the forward kernel.
  float* got = scope.floats(static_cast<std::size_t>(howo * o_c));

  for (std::int64_t img = 0; img < csr.rows(); ++img) {
    transpose_tiled<V, false>(grad_out + img * o_c * howo, o_c, howo, got,
                              tile);
    const std::int32_t* idx = csr.row_indices(img);
    const float* val = csr.row_values(img);
    const std::int64_t cnt = csr.row_nnz(img);
    // Each chunk owns an O-slice [ob, oe): it accumulates a private
    // (CKK, oe-ob) per-image partial from the events, then adds it into
    // its own grad_weight rows. gemm_nt computes the same per-image
    // partial (acc from +0, p ascending) before its single add, so the
    // result matches the dense path bit-for-bit for any partition.
    parallel_for_range(
        0, static_cast<std::size_t>(o_c), [&](std::size_t b, std::size_t e) {
          const std::int64_t ob = static_cast<std::int64_t>(b);
          const std::int64_t ow = static_cast<std::int64_t>(e) - ob;
          auto chunk_scope = Workspace::tls().scope();
          float* dwt = chunk_scope.floats(static_cast<std::size_t>(ckk * ow));
          std::memset(dwt, 0,
                      static_cast<std::size_t>(ckk * ow) * sizeof(float));
          for (std::int64_t ev = 0; ev < cnt; ++ev) {
            const std::int64_t flat = idx[ev];
            const float v = val[ev];
            const std::int64_t c = flat / hw;
            const std::int64_t rem = flat - c * hw;
            const std::int64_t iy = rem / g.in_w;
            const std::int64_t ix = rem - iy * g.in_w;
            for (std::int64_t ky = 0; ky < k; ++ky) {
              const std::int64_t ty = iy + pad - ky;
              if (ty < 0 || ty % s != 0) continue;
              const std::int64_t oy = ty / s;
              if (oy >= ho) continue;
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t tx = ix + pad - kx;
                if (tx < 0 || tx % s != 0) continue;
                const std::int64_t ox = tx / s;
                if (ox >= wo) continue;
                float* drow = dwt + ((c * k + ky) * k + kx) * ow;
                const float* grow = got + (oy * wo + ox) * o_c + ob;
                axpy<V, F>(ow, v, grow, drow);
              }
            }
          }
          transpose_tiled<V, true>(dwt, ckk, ow, grad_weight + ob * ckk,
                                   tile);
        });
  }
}

template <bool V, bool F>
void linear_backward_weight(const SpikeCsr& csr, const float* grad_out,
                            std::int64_t out_f, float* grad_weight,
                            Workspace& ws) {
  const std::int64_t in_f = csr.row_len();
  const std::int64_t tile = kernel_config().transpose_tile;
  auto scope = ws.scope();
  // Accumulate through a transposed (in_f, out_f) view so each event is a
  // unit-stride axpy of length O. gemm_tn accumulates directly onto C in
  // ascending batch-row order; the transposes are element-exact copies, so
  // accumulating onto the transposed copy in the same row order matches.
  float* wgt = scope.floats(static_cast<std::size_t>(in_f * out_f));
  transpose_tiled<V, false>(grad_weight, out_f, in_f, wgt, tile);
  const std::int64_t rows = csr.rows();
  parallel_for_range(
      0, static_cast<std::size_t>(out_f), [&](std::size_t b, std::size_t e) {
        const std::int64_t ob = static_cast<std::int64_t>(b);
        const std::int64_t oe = static_cast<std::int64_t>(e);
        for (std::int64_t row = 0; row < rows; ++row) {
          const float* gorow = grad_out + row * out_f;
          const std::int32_t* idx = csr.row_indices(row);
          const float* val = csr.row_values(row);
          const std::int64_t cnt = csr.row_nnz(row);
          for (std::int64_t ev = 0; ev < cnt; ++ev) {
            float* wrow = wgt + static_cast<std::int64_t>(idx[ev]) * out_f;
            axpy<V, F>(oe - ob, val[ev], gorow + ob, wrow + ob);
          }
        }
      });
  transpose_tiled<V, false>(wgt, in_f, out_f, grad_weight, tile);
}

template <bool V, bool F>
void depthwise_backward_weight(const ConvGeometry& g, const SpikeCsr& csr,
                               const float* grad_out, float* grad_weight) {
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t howo = ho * wo;
  const std::int64_t hw = g.in_h * g.in_w;
  const std::int64_t k = g.kernel, s = g.stride, pad = g.pad;
  const std::int64_t c_ = g.in_c;

  for (std::int64_t img = 0; img < csr.rows(); ++img) {
    const std::int32_t* idx = csr.row_indices(img);
    const float* val = csr.row_values(img);
    const std::int64_t cnt = csr.row_nnz(img);
    for (std::int64_t e = 0; e < cnt; ++e) {
      const std::int64_t flat = idx[e];
      const float v = val[e];
      const std::int64_t c = flat / hw;
      const std::int64_t rem = flat - c * hw;
      const std::int64_t iy = rem / g.in_w;
      const std::int64_t ix = rem - iy * g.in_w;
      const float* gop = grad_out + (img * c_ + c) * howo;
      float* gw = grad_weight + c * k * k;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t ty = iy + pad - ky;
        if (ty < 0 || ty % s != 0) continue;
        const std::int64_t oy = ty / s;
        if (oy >= ho) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t tx = ix + pad - kx;
          if (tx < 0 || tx % s != 0) continue;
          const std::int64_t ox = tx / s;
          if (ox >= wo) continue;
          gw[ky * k + kx] += gop[oy * wo + ox] * v;
        }
      }
    }
  }
}

// ---- Packed-spike term kernels (bodies: see spike_packed.h) ----------------
// One event walk per kernel, templated on the weight type W and the
// accumulator type Acc: (float, float) for fp32 plans, (int8, int32) for
// int8 plans (instantiated by the quant table, quant_kernels_impl.h).
// Binary spikes make every accumulate a pure row-add, so the walk is
// exact given the weights, and bit-equal across SIMD levels. V is kept
// even where the body ignores it, so the scalar and -mavx2 translation
// units never emit the same symbol.

template <bool V, typename W, typename Acc>
std::int64_t packed_conv2d_term(const ConvGeometry& g, std::int64_t src_c,
                                const std::uint64_t* words,
                                const std::int32_t* chrow, const W* wt,
                                std::int64_t out_c, Acc* outt) {
  const std::int64_t h = g.in_h, w = g.in_w;
  const std::int64_t k = g.kernel, s = g.stride, pad = g.pad;
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t plane = h * w;
  const std::int64_t numel = src_c * plane;
  const std::int64_t nwords = (numel + 63) >> 6;
  std::int64_t synops = 0;

  for (std::int64_t wi = 0; wi < nwords; ++wi) {
    std::uint64_t bits = words[wi];
    if (bits == 0) continue;  // popcount-guided: skip 64 positions at once
    const std::int64_t base = wi << 6;
    while (bits != 0) {
      const std::int64_t flat = base + std::countr_zero(bits);
      bits &= bits - 1;
      const std::int64_t c = flat / plane;
      const std::int64_t rem = flat - c * plane;
      const std::int64_t iy = rem / w;
      const std::int64_t ix = rem - iy * w;
      const std::int64_t row =
          chrow != nullptr ? static_cast<std::int64_t>(chrow[c]) : c;
      if (row < 0) continue;
      // Same tap walk as spike_conv2d_forward: each valid (ky, kx) is one
      // contiguous out_c-length accumulation of a transposed weight row —
      // pure adds (binary spikes), so every SIMD level is bit-equal.
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t ty = iy + pad - ky;
        if (ty < 0 || ty % s != 0) continue;
        const std::int64_t oy = ty / s;
        if (oy >= ho) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t tx = ix + pad - kx;
          if (tx < 0 || tx % s != 0) continue;
          const std::int64_t ox = tx / s;
          if (ox >= wo) continue;
          const W* wrow = wt + ((row * k + ky) * k + kx) * out_c;
          Acc* orow = outt + (oy * wo + ox) * out_c;
          add_rows<V>(out_c, wrow, orow);
          synops += out_c;
        }
      }
    }
  }
  return synops;
}

template <bool V, typename W, typename Acc>
std::int64_t packed_depthwise_term(const ConvGeometry& g, std::int64_t src_c,
                                   const std::uint64_t* words,
                                   const std::int32_t* chrow, const W* weight,
                                   Acc* acc) {
  const std::int64_t h = g.in_h, w = g.in_w;
  const std::int64_t k = g.kernel, s = g.stride, pad = g.pad;
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  const std::int64_t plane = h * w;
  const std::int64_t numel = src_c * plane;
  const std::int64_t nwords = (numel + 63) >> 6;
  std::int64_t synops = 0;

  for (std::int64_t wi = 0; wi < nwords; ++wi) {
    std::uint64_t bits = words[wi];
    if (bits == 0) continue;
    const std::int64_t base = wi << 6;
    while (bits != 0) {
      const std::int64_t flat = base + std::countr_zero(bits);
      bits &= bits - 1;
      const std::int64_t c = flat / plane;
      const std::int64_t rem = flat - c * plane;
      const std::int64_t iy = rem / w;
      const std::int64_t ix = rem - iy * w;
      const std::int64_t row =
          chrow != nullptr ? static_cast<std::int64_t>(chrow[c]) : c;
      if (row < 0) continue;
      const W* ker = weight + row * k * k;
      Acc* oplane = acc + row * ho * wo;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t ty = iy + pad - ky;
        if (ty < 0 || ty % s != 0) continue;
        const std::int64_t oy = ty / s;
        if (oy >= ho) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t tx = ix + pad - kx;
          if (tx < 0 || tx % s != 0) continue;
          const std::int64_t ox = tx / s;
          if (ox >= wo) continue;
          oplane[oy * wo + ox] += ker[ky * k + kx];
          ++synops;
        }
      }
    }
  }
  return synops;
}

// ---- Inference epilogue rows (contracts: tensor/epilogue.h) ----------------

template <bool V, bool F>
std::int64_t lif_row(std::int64_t p, const float* acc, int use_scale,
                     float scale, float bias, float beta, float theta,
                     float* m, float* dst, std::uint64_t* wbits,
                     std::int64_t bit0) {
  std::int64_t j = 0;
  std::int64_t spk = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 sv = _mm256_set1_ps(scale);
    const __m256 bv = _mm256_set1_ps(bias);
    const __m256 betav = _mm256_set1_ps(beta);
    const __m256 thetav = _mm256_set1_ps(theta);
    const __m256 one = _mm256_set1_ps(1.f);
    const __m256 zero = _mm256_setzero_ps();
    for (; j + 8 <= p; j += 8) {
      __m256 a = _mm256_loadu_ps(acc + j);
      if (use_scale != 0) a = _mm256_mul_ps(sv, a);
      const __m256 in = _mm256_add_ps(a, bv);
      const __m256 mv = _mm256_loadu_ps(m + j);
      __m256 vt;
      if constexpr (F) {
        vt = _mm256_fmadd_ps(betav, mv, in);
      } else {
        vt = _mm256_add_ps(_mm256_mul_ps(betav, mv), in);
      }
      const __m256 dist = _mm256_sub_ps(vt, thetav);
      // dist >= 0 (ordered: NaN never spikes, matching the scalar compare).
      const __m256 ge = _mm256_cmp_ps(dist, zero, _CMP_GE_OQ);
      _mm256_storeu_ps(dst + j, _mm256_and_ps(ge, one));
      // Soft reset on spike lanes, plain integrate on the rest.
      _mm256_storeu_ps(m + j, _mm256_blendv_ps(vt, dist, ge));
      const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(ge));
      spk += std::popcount(mask);
      if (mask != 0) {
        const std::int64_t bit = bit0 + j;
        const std::int64_t wrd = bit >> 6;
        const int off = static_cast<int>(bit & 63);
        wbits[wrd] |= static_cast<std::uint64_t>(mask) << off;
        if (off > 56) {
          // The 8 lanes straddle a word boundary; the caller guarantees
          // bit0 + p - 1 is in range, so wrd + 1 exists.
          wbits[wrd + 1] |= static_cast<std::uint64_t>(mask) >> (64 - off);
        }
      }
    }
  }
#endif
  for (; j < p; ++j) {
    const float a0 = acc[j];
    const float in = (use_scale != 0 ? scale * a0 : a0) + bias;
    const float vt = beta * m[j] + in;
    const float dist = vt - theta;
    if (dist >= 0.f) {
      dst[j] = 1.f;
      m[j] = dist;
      const std::int64_t bit = bit0 + j;
      wbits[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      ++spk;
    } else {
      dst[j] = 0.f;
      m[j] = vt;
    }
  }
  return spk;
}

template <bool V, bool F>
void affine_row(std::int64_t p, const float* acc, int use_scale, float scale,
                float bias, int relu, float* dst) {
  std::int64_t j = 0;
#if defined(__AVX2__)
  if constexpr (V) {
    const __m256 sv = _mm256_set1_ps(scale);
    const __m256 bv = _mm256_set1_ps(bias);
    const __m256 zero = _mm256_setzero_ps();
    for (; j + 8 <= p; j += 8) {
      __m256 a = _mm256_loadu_ps(acc + j);
      if (use_scale != 0) a = _mm256_mul_ps(sv, a);
      __m256 in = _mm256_add_ps(a, bv);
      // max_ps(in, 0) == (in > 0 ? in : 0) lane-wise, including the NaN
      // and signed-zero cases (NaN compares false -> second operand).
      if (relu != 0) in = _mm256_max_ps(in, zero);
      _mm256_storeu_ps(dst + j, in);
    }
  }
#endif
  for (; j < p; ++j) {
    const float a0 = acc[j];
    const float in = (use_scale != 0 ? scale * a0 : a0) + bias;
    dst[j] = relu != 0 ? (in > 0.f ? in : 0.f) : in;
  }
}

/// One table per (V, F) instantiation; the three accessors in simd_ops.h
/// each wrap one of these in a function-local static.
template <bool V, bool F>
inline simd::SpikeKernels make_spike_table() {
  return simd::SpikeKernels{
      &conv2d_forward<V, F>,
      &linear_forward<V, F>,
      &depthwise_forward<V, F>,
      &conv2d_backward_weight<V, F>,
      &linear_backward_weight<V, F>,
      &depthwise_backward_weight<V, F>,
      &transpose_tiled<V, false>,
      &transpose_tiled<V, true>,
      &count_nonzero_impl<V>,
      &packed_conv2d_term<V, float, float>,
      &packed_depthwise_term<V, float, float>,
      &lif_row<V, F>,
      &affine_row<V, F>,
  };
}

}  // namespace snnskip::spike_impl
