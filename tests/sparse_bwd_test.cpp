// Event-driven sparse BPTT backward (ISSUE 4): a layer whose forward took
// the event path keeps its SpikeCsr and computes dW from it, promising
// BIT-FOR-BIT equality with the dense gemm/direct-loop paths at any
// thread-count partitioning. dX is always dense. These tests pin that:
//
//   - Conv2d / Linear / DepthwiseConv2d sparse-vs-dense gradient equality
//     over random spike tensors and geometries (stride 2, 1x1, no-pad),
//     with dense and Bernoulli-masked output gradients
//   - invariance under 1/2/4-way parallel_for partitions (the chunk
//     override exercises partition boundaries even on a 1-core runner)
//   - the chain the models build (spikes -> conv -> BNTT -> LIF/PLIF) for
//     all three surrogates and a refractory LIF: the gradient reaching the
//     conv is dense, and its dW/dX match with events on and off
//   - the Boxcar |u| == w window boundary
//   - RetainedActivations accounting (CSR contexts shrink retained bytes,
//     backward/reset return to baseline)
//   - set_input_grad_needed(false): dX skipped (zeros), dW still exact
//   - the dW dispatch counts behind bwd_stats()

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/batchnorm_tt.h"
#include "nn/conv2d.h"
#include "nn/depthwise_conv2d.h"
#include "nn/linear.h"
#include "parallel/parallel_for.h"
#include "snn/lif.h"
#include "snn/plif.h"
#include "telemetry/retained.h"
#include "tensor/spike_kernels.h"
#include "util/rng.h"

namespace snnskip {
namespace {

// Save/restore the SparseExec switches around each test.
struct SparseGuard {
  bool enabled = SparseExec::enabled();
  float threshold = SparseExec::threshold();
  ~SparseGuard() {
    SparseExec::set_enabled(enabled);
    SparseExec::set_threshold(threshold);
  }
};

struct ChunkGuard {
  explicit ChunkGuard(std::size_t k) { set_parallel_chunk_override(k); }
  ~ChunkGuard() { set_parallel_chunk_override(0); }
};

// Bernoulli(rate) mask times N(0,1): surrogate-style sparse values.
Tensor sparse_signal(const Shape& shape, Rng& rng, float rate) {
  Tensor mask = Tensor::bernoulli(shape, rng, rate);
  Tensor noise = Tensor::randn(shape, rng);
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask[static_cast<std::size_t>(i)] *= noise[static_cast<std::size_t>(i)];
  }
  return mask;
}

struct Grads {
  Tensor dw;
  Tensor db;
  Tensor dx;
};

// One train-mode fwd+bwd with grads zeroed first.
Grads run_step(Layer& layer, const Tensor& x, const Tensor& g) {
  layer.reset_state();
  for (Parameter* p : layer.parameters()) p->zero_grad();
  (void)layer.forward(x, /*train=*/true);
  Grads out;
  out.dx = layer.backward(g);
  auto params = layer.parameters();
  out.dw = params[0]->grad;
  if (params.size() > 1) out.db = params[1]->grad;
  return out;
}

void expect_bitwise_equal(const Grads& a, const Grads& b) {
  EXPECT_EQ(Tensor::max_abs_diff(a.dw, b.dw), 0.f);
  EXPECT_EQ(Tensor::max_abs_diff(a.dx, b.dx), 0.f);
  if (a.db.numel() > 0) {
    EXPECT_EQ(Tensor::max_abs_diff(a.db, b.db), 0.f);
  }
}

Grads dense_reference(Layer& layer, const Tensor& x, const Tensor& g) {
  SparseExec::set_enabled(false);
  Grads dense = run_step(layer, x, g);
  SparseExec::set_enabled(true);
  return dense;
}

// --- Conv2d -----------------------------------------------------------------

struct ConvCase {
  std::int64_t in_c, out_c, kernel, stride, pad, h, w, n;
  bool bias;
  float grad_rate;  // 1.0 = dense grad_out, else a Bernoulli-masked one
};

class ConvSparseBwd : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSparseBwd, MatchesDenseBitForBit) {
  const ConvCase c = GetParam();
  SparseGuard guard;
  SparseExec::set_enabled(true);
  SparseExec::set_threshold(0.25f);

  Rng rng(101);
  Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, c.bias, rng);
  Tensor x = Tensor::bernoulli(Shape{c.n, c.in_c, c.h, c.w}, rng, 0.1f);
  const Shape os = conv.output_shape(x.shape());
  Tensor g = c.grad_rate >= 1.f ? Tensor::randn(os, rng)
                                : sparse_signal(os, rng, c.grad_rate);

  Grads sparse = run_step(conv, x, g);
  Grads dense = dense_reference(conv, x, g);
  expect_bitwise_equal(sparse, dense);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSparseBwd,
    ::testing::Values(
        ConvCase{3, 4, 3, 1, 1, 6, 6, 2, true, 1.f},    // dense grads
        ConvCase{3, 4, 3, 1, 1, 6, 6, 2, true, 0.1f},   // sparse grads
        ConvCase{2, 5, 3, 2, 1, 7, 7, 2, false, 0.1f},  // stride 2
        ConvCase{4, 3, 1, 1, 0, 5, 5, 1, true, 0.1f},   // 1x1 kernel
        ConvCase{2, 3, 3, 1, 0, 6, 4, 3, false, 0.1f},  // no pad, non-square
        ConvCase{5, 2, 3, 2, 0, 8, 8, 2, true, 0.05f}));

TEST(ConvSparseBwd, InvariantUnderChunkPartitions) {
  SparseGuard guard;
  SparseExec::set_enabled(true);
  SparseExec::set_threshold(0.25f);

  Rng rng(103);
  Conv2d conv(4, 6, 3, 1, 1, true, rng);
  Tensor x = Tensor::bernoulli(Shape{2, 4, 8, 8}, rng, 0.1f);
  Tensor g = sparse_signal(conv.output_shape(x.shape()), rng, 0.1f);

  Grads base = run_step(conv, x, g);  // default partitioning
  for (std::size_t k : {1u, 2u, 4u}) {
    ChunkGuard chunks(k);
    Grads got = run_step(conv, x, g);
    SCOPED_TRACE("chunks=" + std::to_string(k));
    expect_bitwise_equal(got, base);
  }
  // And the dense reference is partition-count-sensitive-free too.
  Grads dense = dense_reference(conv, x, g);
  expect_bitwise_equal(base, dense);
}

TEST(ConvSparseBwd, SkippedInputGradIsZeroAndWeightGradExact) {
  SparseGuard guard;
  SparseExec::set_enabled(true);
  SparseExec::set_threshold(0.25f);

  Rng rng(105);
  Conv2d conv(3, 4, 3, 1, 1, false, rng);
  Tensor x = Tensor::bernoulli(Shape{2, 3, 6, 6}, rng, 0.1f);
  Tensor g = sparse_signal(conv.output_shape(x.shape()), rng, 0.1f);

  Grads with_dx = dense_reference(conv, x, g);

  conv.set_input_grad_needed(false);
  Grads sparse = run_step(conv, x, g);
  EXPECT_EQ(Tensor::max_abs_diff(sparse.dw, with_dx.dw), 0.f);
  for (std::int64_t i = 0; i < sparse.dx.numel(); ++i) {
    ASSERT_EQ(sparse.dx[static_cast<std::size_t>(i)], 0.f);
  }
}

// --- Linear -----------------------------------------------------------------

TEST(LinearSparseBwd, MatchesDenseBitForBit) {
  SparseGuard guard;
  SparseExec::set_enabled(true);
  SparseExec::set_threshold(0.25f);

  Rng rng(107);
  for (float grad_rate : {1.f, 0.1f}) {
    Linear lin(24, 10, true, rng);
    Tensor x = Tensor::bernoulli(Shape{5, 24}, rng, 0.1f);
    Tensor g = grad_rate >= 1.f
                   ? Tensor::randn(Shape{5, 10}, rng)
                   : sparse_signal(Shape{5, 10}, rng, grad_rate);
    Grads sparse = run_step(lin, x, g);
    Grads dense = dense_reference(lin, x, g);
    SCOPED_TRACE("grad_rate=" + std::to_string(grad_rate));
    expect_bitwise_equal(sparse, dense);
  }
}

TEST(LinearSparseBwd, InvariantUnderChunkPartitions) {
  SparseGuard guard;
  SparseExec::set_enabled(true);
  SparseExec::set_threshold(0.25f);

  Rng rng(109);
  Linear lin(32, 12, false, rng);
  Tensor x = Tensor::bernoulli(Shape{4, 32}, rng, 0.1f);
  Tensor g = sparse_signal(Shape{4, 12}, rng, 0.1f);

  Grads base = run_step(lin, x, g);
  for (std::size_t k : {1u, 2u, 4u}) {
    ChunkGuard chunks(k);
    Grads got = run_step(lin, x, g);
    SCOPED_TRACE("chunks=" + std::to_string(k));
    expect_bitwise_equal(got, base);
  }
  expect_bitwise_equal(base, dense_reference(lin, x, g));
}

// --- DepthwiseConv2d --------------------------------------------------------

TEST(DepthwiseSparseBwd, MatchesDenseBitForBit) {
  SparseGuard guard;
  SparseExec::set_enabled(true);
  SparseExec::set_threshold(0.25f);

  Rng rng(111);
  struct DwCase {
    std::int64_t c, k, s, p;
  };
  for (const DwCase dc : {DwCase{4, 3, 1, 1}, DwCase{3, 3, 2, 1}}) {
    DepthwiseConv2d conv(dc.c, dc.k, dc.s, dc.p, true, rng);
    Tensor x = Tensor::bernoulli(Shape{2, dc.c, 7, 7}, rng, 0.1f);
    Tensor g = sparse_signal(conv.output_shape(x.shape()), rng, 0.2f);
    Grads sparse = run_step(conv, x, g);
    Grads dense = dense_reference(conv, x, g);
    SCOPED_TRACE("stride=" + std::to_string(dc.s));
    expect_bitwise_equal(sparse, dense);
  }
}

// --- The model chain: spikes -> conv -> BNTT -> neuron ----------------------

// Every Block node and stem runs op -> BatchNormTT -> neuron. Run that
// chain over `timesteps` steps with the event path on and backprop a top
// gradient; capture the gradient BNTT hands the conv at each step. It is
// dense whatever the surrogate — the train-mode BNTT backward mixes every
// element of a channel — which is why the conv has no event-driven dX.
// Then replay the SAME gradients through an identically initialized conv
// in forced-dense mode: dW and every dX must agree bit-for-bit (the conv's
// forward mode never enters its backward math beyond the saved input).
template <typename Neuron>
void check_neuron_driven_conv(const LifConfig& cfg, int timesteps = 1) {
  SparseGuard guard;
  SparseExec::set_threshold(0.25f);

  Rng rng(113);
  std::vector<Tensor> xs;
  std::vector<Tensor> g_tops;
  for (int t = 0; t < timesteps; ++t) {
    xs.push_back(Tensor::bernoulli(Shape{2, 3, 8, 8}, rng, 0.1f));
    g_tops.push_back(Tensor::randn(Shape{2, 4, 8, 8}, rng));
  }

  SparseExec::set_enabled(true);
  Rng init(114);
  Conv2d conv(3, 4, 3, 1, 1, false, init);
  BatchNormTT bn(4, timesteps);
  Neuron neuron(cfg);
  for (int t = 0; t < timesteps; ++t) {
    (void)neuron.forward(bn.forward(conv.forward(xs[t], /*train=*/true),
                                    /*train=*/true),
                         /*train=*/true);
  }
  SparseExec::reset_stats();
  std::vector<Tensor> g_convs(timesteps);
  std::vector<Tensor> sparse_dx(timesteps);
  for (int t = timesteps - 1; t >= 0; --t) {
    g_convs[t] = bn.backward(neuron.backward(g_tops[t]));
    EXPECT_EQ(count_nonzero(g_convs[t].data(), g_convs[t].numel()),
              g_convs[t].numel())
        << "BNTT handed the conv a sparse gradient at timestep " << t;
    sparse_dx[t] = conv.backward(g_convs[t]);
  }
  // Every dW ran from the forward's events.
  EXPECT_EQ(SparseExec::bwd_stats().sparse_calls,
            static_cast<std::uint64_t>(timesteps));
  EXPECT_EQ(SparseExec::bwd_stats().dense_calls, 0u);

  SparseExec::set_enabled(false);
  Rng init_dense(114);
  Conv2d dense(3, 4, 3, 1, 1, false, init_dense);
  for (int t = 0; t < timesteps; ++t) {
    (void)dense.forward(xs[t], /*train=*/true);
  }
  for (int t = timesteps - 1; t >= 0; --t) {
    Tensor dense_dx = dense.backward(g_convs[t]);
    EXPECT_EQ(Tensor::max_abs_diff(sparse_dx[t], dense_dx), 0.f)
        << "dX mismatch at timestep " << t;
  }
  EXPECT_EQ(Tensor::max_abs_diff(conv.weight().grad, dense.weight().grad),
            0.f);
}

TEST(NeuronDrivenConvBwd, BoxcarActiveSetDispatchesSparse) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::Boxcar;
  cfg.surrogate.scale = 2.f;  // half-width 0.5: narrow window, sparse dL/dx
  check_neuron_driven_conv<Lif>(cfg);
}

TEST(NeuronDrivenConvBwd, FastSigmoidIsDenseEverywhere) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::FastSigmoid;
  check_neuron_driven_conv<Lif>(cfg);
}

TEST(NeuronDrivenConvBwd, AtanIsDenseEverywhere) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::Atan;
  check_neuron_driven_conv<Lif>(cfg);
}

TEST(NeuronDrivenConvBwd, PlifBoxcarDispatchesSparse) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::Boxcar;
  cfg.surrogate.scale = 2.f;
  check_neuron_driven_conv<Plif>(cfg);
}

TEST(NeuronDrivenConvBwd, RefractoryLifStaysExact) {
  LifConfig cfg;
  cfg.surrogate.kind = SurrogateKind::Boxcar;
  cfg.surrogate.scale = 2.f;
  cfg.refractory = 2;  // silenced steps mask their spike gradient to zero
  // 3 timesteps so neurons that spike at t=0 are refractory (live_mask 0,
  // gradient hard-zeroed) during t=1..2.
  check_neuron_driven_conv<Lif>(cfg, /*timesteps=*/3);
}

TEST(BoxcarBoundary, WindowEdgeIsInsideTheActiveSet) {
  // scale = 2 -> half-width w = 0.5 (both exact in binary floating point).
  Surrogate s;
  s.kind = SurrogateKind::Boxcar;
  s.scale = 2.f;
  EXPECT_EQ(s.grad(0.5f), 1.f);    // |u| == w: inside the window
  EXPECT_EQ(s.grad(-0.5f), 1.f);
  EXPECT_EQ(s.grad(std::nextafter(0.5f, 1.f)), 0.f);  // just outside

  // A LIF neuron landing exactly on the window edge: threshold 1,
  // x = 1.5 on a fresh membrane -> u = 0.5 == w. Its gradient entry must
  // be inside the active set and propagate go * sigma'(u) = go * 1.
  LifConfig cfg;
  cfg.surrogate = s;
  cfg.threshold = 1.f;
  Lif lif(cfg);
  Tensor x(Shape{1, 4});
  x[0] = 1.5f;   // u = +0.5: boundary, active
  x[1] = 0.5f;   // u = -0.5: boundary, active
  x[2] = 1.6f;   // u > w: inactive
  x[3] = 0.f;    // u = -1: inactive
  (void)lif.forward(x, /*train=*/true);
  Tensor g = Tensor::full(Shape{1, 4}, 2.f);
  Tensor gi = lif.backward(g);
  EXPECT_EQ(gi[0], 2.f);
  EXPECT_EQ(gi[1], 2.f);
  EXPECT_EQ(gi[2], 0.f);
  EXPECT_EQ(gi[3], 0.f);
  lif.reset_state();
}

// --- RetainedActivations ----------------------------------------------------

TEST(RetainedActivationsTest, SparseContextsShrinkAndBalance) {
  SparseGuard guard;
  SparseExec::set_enabled(true);
  SparseExec::set_threshold(0.25f);

  Rng rng(117);
  Conv2d conv(4, 4, 3, 1, 1, false, rng);
  Tensor x = Tensor::bernoulli(Shape{1, 4, 8, 8}, rng, 0.05f);
  Tensor g = Tensor::randn(conv.output_shape(x.shape()), rng);
  const std::int64_t dense_bytes =
      x.numel() * static_cast<std::int64_t>(sizeof(float));

  const std::int64_t base = RetainedActivations::current();

  // Sparse forward retains the CSR, far smaller than the dense tensor.
  (void)conv.forward(x, /*train=*/true);
  const std::int64_t sparse_held = RetainedActivations::current() - base;
  EXPECT_GT(sparse_held, 0);
  EXPECT_LT(sparse_held, dense_bytes);
  EXPECT_GE(RetainedActivations::high_water(), base + sparse_held);
  (void)conv.backward(g);
  EXPECT_EQ(RetainedActivations::current(), base);

  // Dense forward retains the full tensor; reset_state releases it.
  SparseExec::set_enabled(false);
  (void)conv.forward(x, /*train=*/true);
  EXPECT_EQ(RetainedActivations::current() - base, dense_bytes);
  conv.reset_state();
  EXPECT_EQ(RetainedActivations::current(), base);
}

TEST(RetainedActivationsTest, NeuronContextsBalanceAcrossTimesteps) {
  Rng rng(119);
  Lif lif(LifConfig{});
  Tensor x = Tensor::bernoulli(Shape{2, 3, 4, 4}, rng, 0.3f);
  const std::int64_t base = RetainedActivations::current();
  for (int t = 0; t < 3; ++t) (void)lif.forward(x, /*train=*/true);
  EXPECT_GT(RetainedActivations::current(), base);
  lif.reset_state();
  EXPECT_EQ(RetainedActivations::current(), base);
}

// --- backward-dispatch telemetry --------------------------------------------

// bwd_stats() counts one dW dispatch per conv/linear/depthwise backward:
// events when the forward ran sparse, GEMM (or the direct loop) otherwise.
// perfbench's train.sparse_bwd_share is sparse / (sparse + dense) of these.
TEST(SparseBwdStats, CountsDispatchAndDensity) {
  SparseGuard guard;
  SparseExec::set_enabled(true);
  SparseExec::set_threshold(0.25f);

  Rng rng(121);
  Linear lin(16, 8, false, rng);
  Tensor x_sparse = Tensor::bernoulli(Shape{3, 16}, rng, 0.1f);
  Tensor x_dense = Tensor::randn(Shape{3, 16}, rng);
  Tensor g = Tensor::randn(Shape{3, 8}, rng);

  SparseExec::reset_stats();
  (void)run_step(lin, x_sparse, g);
  (void)run_step(lin, x_dense, g);
  const auto bwd = SparseExec::bwd_stats();
  EXPECT_EQ(bwd.sparse_calls, 1u);
  EXPECT_EQ(bwd.dense_calls, 1u);
  // Only the counts are kept: the events dW walks are the forward input's,
  // and stats() already holds their density.
  EXPECT_EQ(bwd.elements, 0.0);
  const auto fwd = SparseExec::stats();
  EXPECT_EQ(fwd.sparse_calls, bwd.sparse_calls);
  EXPECT_EQ(fwd.dense_calls, bwd.dense_calls);
  EXPECT_EQ(fwd.elements, static_cast<double>(2 * x_sparse.numel()));
  EXPECT_GT(fwd.density(), 0.0);
  EXPECT_LT(fwd.density(), 1.0);

  // Conv2d and DepthwiseConv2d count too; with the event path off every
  // backward is a dense dispatch.
  Conv2d conv(2, 3, 3, 1, 1, false, rng);
  DepthwiseConv2d dw(2, 3, 1, 1, false, rng);
  Tensor x = Tensor::bernoulli(Shape{1, 2, 5, 5}, rng, 0.1f);
  Tensor gc = Tensor::randn(Shape{1, 3, 5, 5}, rng);
  Tensor gd = Tensor::randn(Shape{1, 2, 5, 5}, rng);
  SparseExec::reset_stats();
  (void)run_step(conv, x, gc);
  (void)run_step(dw, x, gd);
  EXPECT_EQ(SparseExec::bwd_stats().sparse_calls, 2u);
  EXPECT_EQ(SparseExec::bwd_stats().dense_calls, 0u);
  SparseExec::set_enabled(false);
  SparseExec::reset_stats();
  (void)run_step(conv, x, gc);
  (void)run_step(dw, x, gd);
  EXPECT_EQ(SparseExec::bwd_stats().sparse_calls, 0u);
  EXPECT_EQ(SparseExec::bwd_stats().dense_calls, 2u);
}

}  // namespace
}  // namespace snnskip
