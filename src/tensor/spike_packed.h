#pragma once
// Bit-packed spike maps and popcount-guided accumulation kernels (ISSUE 6).
//
// The compiled inference engine represents every binary spike tensor as a
// packed bit mask — 64 spikes per word, bits in NCHW flat order — next to
// a dense float mirror written by the same fused epilogue. The mask makes
// the density measurement exact and O(words) (one popcount sweep instead
// of a float scan), lets skip joins operate on source masks directly (conv
// is linear, so an ADD join is just "accumulate each source term into the
// same output panel"), and drives the event kernels below: whole
// all-zero words are skipped with a single compare, and set bits are
// walked with count-trailing-zeros, so cost scales with the spike count.
//
// Bit order contract: words are filled from flat index 0 upward, bit k of
// word w is flat index w*64 + k, and the term kernels visit set bits in
// ascending flat order — the exact event order SpikeCsr::build produces.
// Since both paths accumulate the same weight rows in the same order into
// the same (Ho*Wo, O) transposed panel layout, the packed and CSR paths
// agree bit-for-bit on single-source layers (see tests/infer_test.cpp).
//
// A "term" is one input source of a consuming conv: the sequential
// predecessor, an ADD-skip source, or a concat-skip channel subset.
// `chrow` maps a source channel to the consumer's input-channel row
// (identity when null, -1 to skip a channel), which is how DSC subsets
// select weight rows without materializing a gathered tensor.

#include <cstdint>

#include "tensor/im2col.h"

namespace snnskip {

/// Words needed to pack `numel` spikes at 64 per word.
inline std::int64_t packed_words(std::int64_t numel) {
  return (numel + 63) >> 6;
}

/// Pack `n` floats into bits (bit set where src != 0). Tail bits of the
/// last word are zeroed. Returns the nonzero count, or -1 if any entry is
/// not exactly 0.f or 1.f (caller falls back to the dense representation —
/// encoder outputs are binary, but arbitrary user input need not be).
std::int64_t spike_pack(const float* src, std::int64_t n,
                        std::uint64_t* words);

/// Total set bits across `nwords` words.
std::int64_t popcount_words(const std::uint64_t* words, std::int64_t nwords);

/// Accumulate one packed input term of a conv layer into the transposed
/// output panel `outt` (Ho*Wo rows of `out_c` contiguous accumulators) for
/// a single image. `g` is the CONSUMER's geometry (g.in_c = its total input
/// channels; g.in_h/in_w are shared with the source). `words` packs the
/// source image's (src_c, H, W) spikes; `chrow` (size src_c, or null for
/// identity) maps source channels to consumer input-channel rows of the
/// transposed weight `wt` ((c,ky,kx), o layout), -1 dropping the channel.
/// Returns the number of accumulates performed (exact synaptic-operation
/// count for the energy model). Two weight types share one event walk:
/// fp32 rows into a float panel, and int8 rows (int8 plans, DESIGN.md
/// §5k) widened into an int32 panel — pure integer adds, so the int8
/// result is exact given the quantized weights.
std::int64_t spike_packed_conv2d_term(const ConvGeometry& g,
                                      std::int64_t src_c,
                                      const std::uint64_t* words,
                                      const std::int32_t* chrow,
                                      const float* wt, std::int64_t out_c,
                                      float* outt);
std::int64_t spike_packed_conv2d_term(const ConvGeometry& g,
                                      std::int64_t src_c,
                                      const std::uint64_t* words,
                                      const std::int32_t* chrow,
                                      const std::int8_t* wt,
                                      std::int64_t out_c, std::int32_t* outt);

/// Depthwise twin of spike_packed_conv2d_term: accumulate into the
/// (C, Ho, Wo) accumulator `acc` for one image; `weight` is the layer's
/// (C, 1, K, K) kernel bank (fp32 or int8, as above). Returns the
/// accumulate count.
std::int64_t spike_packed_depthwise_term(const ConvGeometry& g,
                                         std::int64_t src_c,
                                         const std::uint64_t* words,
                                         const std::int32_t* chrow,
                                         const float* weight, float* acc);
std::int64_t spike_packed_depthwise_term(const ConvGeometry& g,
                                         std::int64_t src_c,
                                         const std::uint64_t* words,
                                         const std::int32_t* chrow,
                                         const std::int8_t* weight,
                                         std::int32_t* acc);

}  // namespace snnskip
