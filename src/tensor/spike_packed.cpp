#include "tensor/spike_packed.h"

#include <bit>

#include "tensor/simd_ops.h"

namespace snnskip {

std::int64_t spike_pack(const float* src, std::int64_t n,
                        std::uint64_t* words) {
  const std::int64_t nwords = packed_words(n);
  std::int64_t nnz = 0;
  bool binary = true;
  for (std::int64_t w = 0; w < nwords; ++w) {
    const std::int64_t base = w << 6;
    const std::int64_t lim = (n - base) < 64 ? (n - base) : 64;
    std::uint64_t bits = 0;
    for (std::int64_t k = 0; k < lim; ++k) {
      const float v = src[base + k];
      if (v != 0.f) {
        bits |= std::uint64_t{1} << k;
        ++nnz;
        if (v != 1.f) binary = false;
      }
    }
    words[w] = bits;
  }
  return binary ? nnz : -1;
}

std::int64_t popcount_words(const std::uint64_t* words, std::int64_t nwords) {
  std::int64_t total = 0;
  for (std::int64_t w = 0; w < nwords; ++w) {
    total += std::popcount(words[w]);
  }
  return total;
}

// Term-kernel bodies live in spike_kernels_impl.h (they share the vector
// primitives and dual-TU instantiation with the CSR kernels); these entry
// points jump through the active SIMD level's table — the spike table for
// fp32 weights, the quant table for int8.

std::int64_t spike_packed_conv2d_term(const ConvGeometry& g,
                                      std::int64_t src_c,
                                      const std::uint64_t* words,
                                      const std::int32_t* chrow,
                                      const float* wt, std::int64_t out_c,
                                      float* outt) {
  return simd::spike_ops().packed_conv2d_term(g, src_c, words, chrow, wt,
                                              out_c, outt);
}

std::int64_t spike_packed_depthwise_term(const ConvGeometry& g,
                                         std::int64_t src_c,
                                         const std::uint64_t* words,
                                         const std::int32_t* chrow,
                                         const float* weight, float* acc) {
  return simd::spike_ops().packed_depthwise_term(g, src_c, words, chrow,
                                                 weight, acc);
}

std::int64_t spike_packed_conv2d_term(const ConvGeometry& g,
                                      std::int64_t src_c,
                                      const std::uint64_t* words,
                                      const std::int32_t* chrow,
                                      const std::int8_t* wt,
                                      std::int64_t out_c, std::int32_t* outt) {
  return simd::quant_ops().packed_conv2d_term(g, src_c, words, chrow, wt,
                                              out_c, outt);
}

std::int64_t spike_packed_depthwise_term(const ConvGeometry& g,
                                         std::int64_t src_c,
                                         const std::uint64_t* words,
                                         const std::int32_t* chrow,
                                         const std::int8_t* weight,
                                         std::int32_t* acc) {
  return simd::quant_ops().packed_depthwise_term(g, src_c, words, chrow,
                                                 weight, acc);
}

}  // namespace snnskip
