// Scalar-vs-AVX2 equivalence for the runtime-dispatched kernels (ISSUE 9).
//
// The dispatch contract (DESIGN.md §5j): Scalar and Avx2 tables are
// bit-identical — the AVX2 paths preserve per-element accumulation order
// and are compiled unfused — so every comparison here is exact memcmp,
// deliberately over geometries that are NOT multiples of the vector width
// or the tile edges. Avx2Fma fuses multiply+add and is only required to
// agree within tolerance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "infer/compile.h"
#include "infer/engine.h"
#include "models/zoo.h"
#include "tensor/cpu_features.h"
#include "tensor/epilogue.h"
#include "tensor/gemm.h"
#include "tensor/kernel_config.h"
#include "tensor/simd_ops.h"
#include "tensor/spike_csr.h"
#include "tensor/spike_kernels.h"
#include "tensor/spike_packed.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace snnskip {
namespace {

bool avx2_available() { return simd_avx2_compiled() && cpu_has_avx2(); }

#define SKIP_WITHOUT_AVX2()                                            \
  if (!avx2_available()) {                                             \
    GTEST_SKIP() << "AVX2 not compiled in or not supported by host";   \
  }

/// Restore the process-wide SIMD level and kernel config after each test.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = active_simd();
    saved_cfg_ = kernel_config();
  }
  void TearDown() override {
    set_active_simd(saved_level_);
    set_kernel_config(saved_cfg_);
  }

 private:
  SimdLevel saved_level_ = SimdLevel::Scalar;
  KernelConfig saved_cfg_{};
};

std::vector<float> randu(std::int64_t n, std::uint64_t seed,
                         float lo = -1.f, float hi = 1.f) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.uniform(lo, hi);
  return v;
}

std::vector<float> spikes(std::int64_t n, std::uint64_t seed, float density) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.uniform(0.f, 1.f) < density ? 1.f : 0.f;
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---- GEMM ------------------------------------------------------------------

struct GemmCase {
  std::int64_t m, n, k;
};

// Odd shapes: below one tile, straddling tile edges, tails in every
// dimension, and one K larger than the smallest kc choice.
const GemmCase kGemmCases[] = {
    {1, 1, 1},  {3, 5, 7},   {7, 17, 9},   {8, 8, 8},
    {6, 16, 4}, {13, 31, 33}, {5, 16, 64}, {33, 47, 131},
};

class GemmBitIdentity : public SimdTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(GemmBitIdentity, AllKernelsAllTiles) {
  SKIP_WITHOUT_AVX2();
  const GemmCase gc = kGemmCases[GetParam()];
  const auto a = randu(gc.m * gc.k, 1);
  const auto b = randu(gc.k * gc.n, 2);
  const auto at = randu(gc.k * gc.m, 3);   // (k, m) operand for gemm_tn
  const auto bt = randu(gc.n * gc.k, 4);   // (n, k) operand for gemm_nt
  const auto c0 = randu(gc.m * gc.n, 5);

  for (int tile = 0; tile < simd::kNumGemmTiles; ++tile) {
    for (int kc : {64, 128}) {
      KernelConfig cfg = kernel_config();
      cfg.gemm_tile = tile;
      cfg.gemm_kc = kc;
      set_kernel_config(cfg);

      auto run = [&](SimdLevel lvl, std::vector<float>* nn,
                     std::vector<float>* tn, std::vector<float>* nt) {
        ASSERT_EQ(set_active_simd(lvl), lvl);
        *nn = c0;
        gemm(gc.m, gc.n, gc.k, 1.1f, a.data(), b.data(), 0.7f, nn->data());
        *tn = c0;
        gemm_tn(gc.m, gc.n, gc.k, 0.9f, at.data(), b.data(), 0.3f,
                tn->data());
        *nt = c0;
        gemm_nt(gc.m, gc.n, gc.k, 1.3f, a.data(), bt.data(), 1.f,
                nt->data());
      };
      std::vector<float> s_nn, s_tn, s_nt, v_nn, v_tn, v_nt;
      run(SimdLevel::Scalar, &s_nn, &s_tn, &s_nt);
      run(SimdLevel::Avx2, &v_nn, &v_tn, &v_nt);
      EXPECT_TRUE(bitwise_equal(s_nn, v_nn))
          << "gemm tile=" << tile << " kc=" << kc;
      EXPECT_TRUE(bitwise_equal(s_tn, v_tn))
          << "gemm_tn tile=" << tile << " kc=" << kc;
      EXPECT_TRUE(bitwise_equal(s_nt, v_nt))
          << "gemm_nt tile=" << tile << " kc=" << kc;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmBitIdentity,
                         ::testing::Range(0, 8));

TEST_F(SimdTest, GemmFmaWithinTolerance) {
  SKIP_WITHOUT_AVX2();
  if (max_simd_level() < SimdLevel::Avx2Fma) {
    GTEST_SKIP() << "host has no FMA";
  }
  const std::int64_t m = 33, n = 47, k = 65;
  const auto a = randu(m * k, 11);
  const auto b = randu(k * n, 12);
  std::vector<float> cs(static_cast<std::size_t>(m * n), 0.f);
  std::vector<float> cf = cs;
  ASSERT_EQ(set_active_simd(SimdLevel::Scalar), SimdLevel::Scalar);
  gemm(m, n, k, 1.f, a.data(), b.data(), 0.f, cs.data());
  ASSERT_EQ(set_active_simd(SimdLevel::Avx2Fma), SimdLevel::Avx2Fma);
  gemm(m, n, k, 1.f, a.data(), b.data(), 0.f, cf.data());
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_NEAR(cs[i], cf[i], 1e-4f * (1.f + std::fabs(cs[i])));
  }
}

// ---- Transposes (satellite: direct edge-tile coverage) ---------------------

void naive_transpose(const std::vector<float>& src, std::int64_t rows,
                     std::int64_t cols, std::vector<float>* dst) {
  dst->assign(static_cast<std::size_t>(rows * cols), 0.f);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      (*dst)[static_cast<std::size_t>(c * rows + r)] =
          src[static_cast<std::size_t>(r * cols + c)];
    }
  }
}

TEST_F(SimdTest, TransposeEdgeTilesExact) {
  // Correctness at every tile size over shapes that are NOT multiples of
  // any tile edge (1x1, sub-tile, straddling, plus an 8-multiple).
  const std::int64_t shapes[][2] = {{1, 1},  {3, 70},  {33, 17},
                                    {31, 65}, {40, 104}, {129, 7}};
  for (const auto& s : shapes) {
    const std::int64_t rows = s[0], cols = s[1];
    const auto src = randu(rows * cols, 21);
    std::vector<float> want;
    naive_transpose(src, rows, cols, &want);
    for (int tile : {16, 32, 64, 128}) {
      KernelConfig cfg = kernel_config();
      cfg.transpose_tile = tile;
      set_kernel_config(cfg);
      std::vector<float> got(want.size(), 0.f);
      transpose_panel(src.data(), rows, cols, got.data());
      EXPECT_TRUE(bitwise_equal(want, got))
          << rows << "x" << cols << " tile=" << tile;
      // transpose_add on a non-zero destination.
      std::vector<float> acc = randu(rows * cols, 22);
      std::vector<float> acc_want = acc;
      for (std::size_t i = 0; i < want.size(); ++i) acc_want[i] += want[i];
      transpose_add_panel(src.data(), rows, cols, acc.data());
      EXPECT_TRUE(bitwise_equal(acc_want, acc))
          << "add " << rows << "x" << cols << " tile=" << tile;
    }
  }
}

TEST_F(SimdTest, TransposeScalarVsAvx2Bitwise) {
  SKIP_WITHOUT_AVX2();
  const std::int64_t rows = 83, cols = 59;
  const auto src = randu(rows * cols, 23);
  for (int tile : {16, 32}) {
    KernelConfig cfg = kernel_config();
    cfg.transpose_tile = tile;
    set_kernel_config(cfg);
    std::vector<float> s(static_cast<std::size_t>(rows * cols), 0.f);
    std::vector<float> v = s;
    ASSERT_EQ(set_active_simd(SimdLevel::Scalar), SimdLevel::Scalar);
    transpose_panel(src.data(), rows, cols, s.data());
    ASSERT_EQ(set_active_simd(SimdLevel::Avx2), SimdLevel::Avx2);
    transpose_panel(src.data(), rows, cols, v.data());
    EXPECT_TRUE(bitwise_equal(s, v)) << "tile=" << tile;
  }
}

// ---- Event-driven spike kernels --------------------------------------------

struct SpikeFixture {
  ConvGeometry g{/*in_c=*/3, /*in_h=*/7, /*in_w=*/5, /*kernel=*/3,
                 /*stride=*/1, /*pad=*/1};
  std::int64_t o_c = 5;
  std::int64_t n_img = 2;
  std::vector<float> in, weight, bias, gout;
  SpikeCsr csr;

  SpikeFixture() {
    const std::int64_t numel = g.in_c * g.in_h * g.in_w;
    in = spikes(n_img * numel, 31, 0.2f);
    csr.build(in.data(), n_img, numel);
    weight = randu(o_c * g.col_rows(), 32);
    bias = randu(o_c, 33);
    gout = randu(n_img * o_c * g.col_cols(), 34);
  }
};

TEST_F(SimdTest, SpikeConvKernelsBitIdentical) {
  SKIP_WITHOUT_AVX2();
  SpikeFixture fx;
  const std::int64_t out_n = fx.n_img * fx.o_c * fx.g.col_cols();
  auto run = [&](SimdLevel lvl, std::vector<float>* fwd,
                 std::vector<float>* gw) {
    ASSERT_EQ(set_active_simd(lvl), lvl);
    fwd->assign(static_cast<std::size_t>(out_n), 0.f);
    spike_conv2d_forward(fx.g, fx.csr, fx.weight.data(), fx.bias.data(),
                         fx.o_c, fwd->data(), Workspace::tls());
    gw->assign(fx.weight.size(), 0.25f);
    spike_conv2d_backward_weight(fx.g, fx.csr, fx.gout.data(), fx.o_c,
                                 gw->data(), Workspace::tls());
  };
  std::vector<float> sf, sw, vf, vw;
  run(SimdLevel::Scalar, &sf, &sw);
  run(SimdLevel::Avx2, &vf, &vw);
  EXPECT_TRUE(bitwise_equal(sf, vf)) << "conv2d forward";
  EXPECT_TRUE(bitwise_equal(sw, vw)) << "conv2d backward weight";
}

TEST_F(SimdTest, SpikeLinearKernelsBitIdentical) {
  SKIP_WITHOUT_AVX2();
  const std::int64_t n_img = 3, in_f = 37, out_f = 19;
  const auto in = spikes(n_img * in_f, 41, 0.25f);
  SpikeCsr csr;
  csr.build(in.data(), n_img, in_f);
  const auto weight = randu(out_f * in_f, 42);
  const auto bias = randu(out_f, 43);
  const auto gout = randu(n_img * out_f, 44);

  auto run = [&](SimdLevel lvl, std::vector<float>* fwd,
                 std::vector<float>* gw) {
    ASSERT_EQ(set_active_simd(lvl), lvl);
    fwd->assign(static_cast<std::size_t>(n_img * out_f), 0.f);
    spike_linear_forward(csr, weight.data(), bias.data(), out_f, fwd->data(),
                         Workspace::tls());
    gw->assign(weight.size(), 0.5f);
    spike_linear_backward_weight(csr, gout.data(), out_f, gw->data(),
                                 Workspace::tls());
  };
  std::vector<float> sf, sw, vf, vw;
  run(SimdLevel::Scalar, &sf, &sw);
  run(SimdLevel::Avx2, &vf, &vw);
  EXPECT_TRUE(bitwise_equal(sf, vf)) << "linear forward";
  EXPECT_TRUE(bitwise_equal(sw, vw)) << "linear backward weight";
}

TEST_F(SimdTest, SpikeDepthwiseKernelsBitIdentical) {
  SKIP_WITHOUT_AVX2();
  ConvGeometry g{/*in_c=*/4, /*in_h=*/9, /*in_w=*/7, /*kernel=*/3,
                 /*stride=*/2, /*pad=*/1};
  const std::int64_t n_img = 2;
  const std::int64_t numel = g.in_c * g.in_h * g.in_w;
  const auto in = spikes(n_img * numel, 51, 0.3f);
  SpikeCsr csr;
  csr.build(in.data(), n_img, numel);
  const auto weight = randu(g.in_c * g.kernel * g.kernel, 52);
  const auto bias = randu(g.in_c, 53);
  const auto gout = randu(n_img * g.in_c * g.col_cols(), 54);

  auto run = [&](SimdLevel lvl, std::vector<float>* fwd,
                 std::vector<float>* gw) {
    ASSERT_EQ(set_active_simd(lvl), lvl);
    fwd->assign(static_cast<std::size_t>(n_img * g.in_c * g.col_cols()),
                0.f);
    spike_depthwise_forward(g, csr, weight.data(), bias.data(), fwd->data());
    gw->assign(weight.size(), 0.125f);
    spike_depthwise_backward_weight(g, csr, gout.data(), gw->data());
  };
  std::vector<float> sf, sw, vf, vw;
  run(SimdLevel::Scalar, &sf, &sw);
  run(SimdLevel::Avx2, &vf, &vw);
  EXPECT_TRUE(bitwise_equal(sf, vf)) << "depthwise forward";
  EXPECT_TRUE(bitwise_equal(sw, vw)) << "depthwise backward weight";
}

TEST_F(SimdTest, PackedTermKernelsBitIdentical) {
  SKIP_WITHOUT_AVX2();
  ConvGeometry g{/*in_c=*/3, /*in_h=*/7, /*in_w=*/5, /*kernel=*/3,
                 /*stride=*/1, /*pad=*/1};
  const std::int64_t numel = g.in_c * g.in_h * g.in_w;
  const std::int64_t o_c = 5;
  const auto in = spikes(numel, 61, 0.3f);
  std::vector<std::uint64_t> words(
      static_cast<std::size_t>(packed_words(numel)), 0u);
  ASSERT_GE(spike_pack(in.data(), numel, words.data()), 0);
  // Transposed weight ((c,ky,kx), o) layout per the packed-term contract.
  const auto wt = randu(g.col_rows() * o_c, 62);
  const auto dwweight = randu(g.in_c * g.kernel * g.kernel, 63);

  auto run = [&](SimdLevel lvl, std::vector<float>* outt,
                 std::vector<float>* acc, std::int64_t* ops1,
                 std::int64_t* ops2) {
    ASSERT_EQ(set_active_simd(lvl), lvl);
    outt->assign(static_cast<std::size_t>(g.col_cols() * o_c), 0.f);
    *ops1 = spike_packed_conv2d_term(g, g.in_c, words.data(), nullptr,
                                     wt.data(), o_c, outt->data());
    acc->assign(static_cast<std::size_t>(g.in_c * g.col_cols()), 0.f);
    *ops2 = spike_packed_depthwise_term(g, g.in_c, words.data(), nullptr,
                                        dwweight.data(), acc->data());
  };
  std::vector<float> so, sa, vo, va;
  std::int64_t sops1, sops2, vops1, vops2;
  run(SimdLevel::Scalar, &so, &sa, &sops1, &sops2);
  run(SimdLevel::Avx2, &vo, &va, &vops1, &vops2);
  EXPECT_TRUE(bitwise_equal(so, vo)) << "packed conv term";
  EXPECT_TRUE(bitwise_equal(sa, va)) << "packed depthwise term";
  EXPECT_EQ(sops1, vops1);
  EXPECT_EQ(sops2, vops2);
}

// ---- Fused epilogue rows ---------------------------------------------------

TEST_F(SimdTest, LifEpilogueRowBitIdentical) {
  SKIP_WITHOUT_AVX2();
  // p=23 exercises the 8-wide vector body plus a 7-element tail; bit0=57
  // makes the spike mask straddle a 64-bit word boundary.
  const std::int64_t p = 23;
  const std::int64_t bit0 = 57;
  auto acc = randu(p, 71, -2.f, 2.f);
  acc[4] = std::numeric_limits<float>::quiet_NaN();  // NaN never spikes
  const auto m0 = randu(p, 72, 0.f, 1.f);

  auto run = [&](SimdLevel lvl, std::vector<float>* m,
                 std::vector<float>* dst, std::vector<std::uint64_t>* wbits,
                 std::int64_t* spk) {
    ASSERT_EQ(set_active_simd(lvl), lvl);
    *m = m0;
    dst->assign(static_cast<std::size_t>(p), -7.f);
    wbits->assign(4, 0u);
    *spk = lif_epilogue_row(p, acc.data(), /*use_scale=*/1, /*scale=*/1.1f,
                            /*bias=*/0.05f, /*beta=*/0.9f, /*theta=*/1.f,
                            m->data(), dst->data(), wbits->data(), bit0);
  };
  std::vector<float> sm, sd, vm, vd;
  std::vector<std::uint64_t> swb, vwb;
  std::int64_t sspk, vspk;
  run(SimdLevel::Scalar, &sm, &sd, &swb, &sspk);
  run(SimdLevel::Avx2, &vm, &vd, &vwb, &vspk);
  EXPECT_TRUE(bitwise_equal(sm, vm)) << "membrane";
  EXPECT_TRUE(bitwise_equal(sd, vd)) << "spikes";
  EXPECT_EQ(swb, vwb) << "packed bits";
  EXPECT_EQ(sspk, vspk);
  // The NaN lane must not have spiked on either path.
  EXPECT_EQ(sd[4], 0.f);
  EXPECT_EQ((swb[(bit0 + 4) / 64] >> ((bit0 + 4) % 64)) & 1u, 0u);
}

TEST_F(SimdTest, AffineEpilogueRowBitIdentical) {
  SKIP_WITHOUT_AVX2();
  const std::int64_t p = 19;
  auto acc = randu(p, 81, -2.f, 2.f);
  acc[3] = std::numeric_limits<float>::quiet_NaN();
  acc[7] = -0.f;
  for (int relu = 0; relu < 2; ++relu) {
    auto run = [&](SimdLevel lvl, std::vector<float>* dst) {
      ASSERT_EQ(set_active_simd(lvl), lvl);
      dst->assign(static_cast<std::size_t>(p), -3.f);
      affine_epilogue_row(p, acc.data(), /*use_scale=*/1, /*scale=*/0.8f,
                          /*bias=*/-0.1f, relu, dst->data());
    };
    std::vector<float> s, v;
    run(SimdLevel::Scalar, &s);
    run(SimdLevel::Avx2, &v);
    EXPECT_TRUE(bitwise_equal(s, v)) << "relu=" << relu;
  }
}

// ---- count_nonzero ---------------------------------------------------------

TEST_F(SimdTest, CountNonzeroBitIdentical) {
  SKIP_WITHOUT_AVX2();
  auto v = randu(1003, 91);
  for (std::size_t i = 0; i < v.size(); i += 3) v[i] = 0.f;
  v[5] = -0.f;                                      // zero: not counted
  v[6] = std::numeric_limits<float>::quiet_NaN();   // != 0: counted
  ASSERT_EQ(set_active_simd(SimdLevel::Scalar), SimdLevel::Scalar);
  const std::int64_t s = count_nonzero(v.data(), v.size());
  ASSERT_EQ(set_active_simd(SimdLevel::Avx2), SimdLevel::Avx2);
  const std::int64_t a = count_nonzero(v.data(), v.size());
  EXPECT_EQ(s, a);
}

// ---- Whole-engine step across a dispatch toggle ----------------------------

TEST_F(SimdTest, CompiledEngineBitIdenticalAcrossToggle) {
  SKIP_WITHOUT_AVX2();
  ModelConfig mc;
  mc.in_channels = 2;
  mc.width = 4;
  mc.max_timesteps = 4;
  mc.seed = 13;
  Network net =
      build_model("single_block", mc, default_adjacencies("single_block", mc));
  const Shape in_shape{1, 2, 8, 8};
  Rng warm(7);
  net.reset_state();
  for (int t = 0; t < 4; ++t) {
    (void)net.forward(Tensor::bernoulli(in_shape, warm, 0.3f), true);
  }
  net.reset_state();
  auto plan = infer::compile(net, in_shape);

  std::vector<Tensor> xs;
  Rng rng(23);
  for (int t = 0; t < 4; ++t) {
    xs.push_back(Tensor::bernoulli(in_shape, rng, 0.2f));
  }
  auto run = [&](SimdLevel lvl) {
    EXPECT_EQ(set_active_simd(lvl), lvl);
    infer::Engine eng(plan);
    std::vector<float> flat;
    Tensor out;
    for (const Tensor& x : xs) {
      eng.step(x, &out);
      flat.insert(flat.end(), out.data(), out.data() + out.numel());
    }
    return flat;
  };
  const auto s = run(SimdLevel::Scalar);
  const auto v = run(SimdLevel::Avx2);
  EXPECT_TRUE(bitwise_equal(s, v));
}

}  // namespace
}  // namespace snnskip
