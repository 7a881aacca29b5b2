// Finite-difference gradient checks for every hand-written backward pass:
// conv (stride/pad sweep), depthwise conv, linear, batch-norm, pooling, and
// whole Blocks with DSC / ASC / mixed adjacencies (the paper's two join
// types differentiated end to end).

#include <gtest/gtest.h>

#include "gradcheck_common.h"
#include "graph/block.h"
#include "nn/activations.h"
#include "nn/batchnorm_tt.h"
#include "nn/conv2d.h"
#include "nn/depthwise_conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "tensor/spike_kernels.h"

namespace snnskip {
namespace {

using testutil::check_gradients;

struct ConvCase {
  std::int64_t in_c, out_c, kernel, stride, pad, h, w;
  bool bias;
};

class ConvGradCheck : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradCheck, MatchesFiniteDifferences) {
  const ConvCase c = GetParam();
  Rng rng(51);
  Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, c.bias, rng);
  Tensor x = Tensor::randn(Shape{2, c.in_c, c.h, c.w}, rng);
  check_gradients(conv, x, 52);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradCheck,
    ::testing::Values(ConvCase{2, 3, 3, 1, 1, 5, 5, true},
                      ConvCase{1, 2, 3, 2, 1, 6, 6, false},
                      ConvCase{3, 2, 1, 1, 0, 4, 4, true},
                      ConvCase{2, 4, 1, 2, 0, 4, 4, false},
                      ConvCase{4, 2, 3, 1, 1, 3, 3, false}));

// --- sparse (event-driven) paths -------------------------------------------
// Bernoulli inputs with the density threshold forced to 1.0 keep every
// layer on the sparse kernels (forward AND the ISSUE 4 sparse-ctx dW)
// through the whole finite-difference sweep.

struct ForceSparse {
  bool enabled = SparseExec::enabled();
  float threshold = SparseExec::threshold();
  ForceSparse() {
    SparseExec::set_enabled(true);
    SparseExec::set_threshold(1.f);
  }
  ~ForceSparse() {
    SparseExec::set_enabled(enabled);
    SparseExec::set_threshold(threshold);
  }
};

TEST(ConvGradCheckSparse, SpikeInputEventPath) {
  ForceSparse force;
  Rng rng(141);
  Conv2d conv(2, 3, 3, 1, 1, true, rng);
  Tensor x = Tensor::bernoulli(Shape{2, 2, 5, 5}, rng, 0.2f);
  check_gradients(conv, x, 142);
}

TEST(ConvGradCheckSparse, Stride2SpikeInput) {
  ForceSparse force;
  Rng rng(143);
  Conv2d conv(2, 3, 3, 2, 1, false, rng);
  Tensor x = Tensor::bernoulli(Shape{1, 2, 6, 6}, rng, 0.2f);
  check_gradients(conv, x, 144);
}

TEST(LinearGradCheckSparse, SpikeInputEventPath) {
  ForceSparse force;
  Rng rng(145);
  Linear lin(8, 4, true, rng);
  Tensor x = Tensor::bernoulli(Shape{3, 8}, rng, 0.2f);
  check_gradients(lin, x, 146);
}

TEST(DepthwiseConvGradCheckSparse, SpikeInputEventPath) {
  ForceSparse force;
  Rng rng(147);
  DepthwiseConv2d conv(3, 3, 1, 1, true, rng);
  Tensor x = Tensor::bernoulli(Shape{2, 3, 5, 5}, rng, 0.2f);
  check_gradients(conv, x, 148);
}

TEST(DepthwiseConvGradCheck, Stride1) {
  Rng rng(53);
  DepthwiseConv2d conv(3, 3, 1, 1, true, rng);
  Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
  check_gradients(conv, x, 54);
}

TEST(DepthwiseConvGradCheck, Stride2NoBias) {
  Rng rng(55);
  DepthwiseConv2d conv(2, 3, 2, 1, false, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
  check_gradients(conv, x, 56);
}

TEST(LinearGradCheck, WithBias) {
  Rng rng(57);
  Linear lin(6, 4, true, rng);
  Tensor x = Tensor::randn(Shape{3, 6}, rng);
  check_gradients(lin, x, 58);
}

TEST(LinearGradCheck, NoBias) {
  Rng rng(59);
  Linear lin(5, 2, false, rng);
  Tensor x = Tensor::randn(Shape{4, 5}, rng);
  check_gradients(lin, x, 60);
}

TEST(BatchNormGradCheck, SingleTimestep) {
  Rng rng(61);
  BatchNormTT bn(3, 1);
  Tensor x = Tensor::randn(Shape{4, 3, 3, 3}, rng, 0.5f, 2.f);
  check_gradients(bn, x, 62, 1e-2f, 4e-2f);
}

TEST(AvgPoolGradCheck, TwoByTwo) {
  Rng rng(63);
  AvgPool2d pool(2, 2);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  check_gradients(pool, x, 64);
}

TEST(AvgPoolGradCheck, CeilModePartialWindows) {
  Rng rng(631);
  AvgPool2d pool(2, 2, /*ceil_mode=*/true);
  Tensor x = Tensor::randn(Shape{2, 2, 5, 5}, rng);  // odd: partial windows
  check_gradients(pool, x, 632);
}

TEST(GlobalAvgPoolGradCheck, Basic) {
  Rng rng(65);
  GlobalAvgPool2d pool;
  Tensor x = Tensor::randn(Shape{2, 4, 3, 3}, rng);
  check_gradients(pool, x, 66);
}

TEST(MaxPoolGradCheck, AwayFromTies) {
  // Max pooling is non-differentiable at ties; use well-separated values.
  Rng rng(67);
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) {
    x[static_cast<std::size_t>(i)] =
        static_cast<float>(i) * 1.7f + static_cast<float>(rng.uniform());
  }
  check_gradients(pool, x, 68, 1e-3f);
}

TEST(FlattenGradCheck, PureReshape) {
  Rng rng(69);
  Flatten fl;
  Tensor x = Tensor::randn(Shape{2, 2, 3, 3}, rng);
  check_gradients(fl, x, 70);
}

TEST(ReluGradCheck, AwayFromKink) {
  Rng rng(71);
  ReLU relu;
  // Keep every entry at least 0.2 away from zero (FD step is 1e-2).
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    float& v = x[static_cast<std::size_t>(i)];
    if (std::abs(v) < 0.2f) v = v >= 0 ? 0.2f : -0.2f;
  }
  check_gradients(relu, x, 72);
}

// --- whole blocks ---------------------------------------------------------
// Analog blocks with linear nodes (no neuron kink, no spike threshold):
// this isolates the DAG wiring — concat segments, channel gathers, ASC
// projections, strided pooling on skip paths — as one differentiable unit.

BlockSpec linear_spec(std::int64_t in_c, std::vector<NodePlan> nodes,
                      const std::string& name) {
  BlockSpec spec;
  spec.name = name;
  spec.in_channels = in_c;
  for (auto& n : nodes) n.spiking = false;  // Identity neurons
  spec.nodes = std::move(nodes);
  return spec;
}

BlockConfig analog_cfg() {
  BlockConfig cfg;
  cfg.mode = NeuronMode::Analog;
  cfg.max_timesteps = 1;
  cfg.dsc_fraction = 0.5;
  return cfg;
}

TEST(BlockGradCheck, ChainNoSkips) {
  Rng rng(81);
  BlockSpec spec = linear_spec(2,
                               {NodePlan{NodeOp::Conv3x3, 3, 1, true},
                                NodePlan{NodeOp::Conv3x3, 3, 1, true}},
                               "gc_chain");
  Block block(spec, Adjacency::chain(2), analog_cfg(), rng);
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  check_gradients(block, x, 82, 1e-2f, 4e-2f);
}

TEST(BlockGradCheck, AscIdentitySkip) {
  Rng rng(83);
  BlockSpec spec = linear_spec(3,
                               {NodePlan{NodeOp::Conv3x3, 3, 1, true},
                                NodePlan{NodeOp::Conv3x3, 3, 1, true}},
                               "gc_asc");
  Adjacency adj(2);
  adj.set(0, 2, SkipType::ASC);  // channels match: identity skip
  Block block(spec, adj, analog_cfg(), rng);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  check_gradients(block, x, 84, 1e-2f, 4e-2f);
}

TEST(BlockGradCheck, AscProjectedSkip) {
  Rng rng(85);
  BlockSpec spec = linear_spec(2,
                               {NodePlan{NodeOp::Conv3x3, 4, 2, true},
                                NodePlan{NodeOp::Conv3x3, 4, 1, true}},
                               "gc_asc_proj");
  Adjacency adj(2);
  adj.set(0, 2, SkipType::ASC);  // channel AND spatial mismatch -> 1x1 proj
  Block block(spec, adj, analog_cfg(), rng);
  Tensor x = Tensor::randn(Shape{2, 2, 6, 6}, rng);
  check_gradients(block, x, 86, 1e-2f, 4e-2f);
}

TEST(BlockGradCheck, DscSkip) {
  Rng rng(87);
  BlockSpec spec = linear_spec(3,
                               {NodePlan{NodeOp::Conv3x3, 3, 1, true},
                                NodePlan{NodeOp::Conv3x3, 3, 1, true},
                                NodePlan{NodeOp::Conv3x3, 3, 1, true}},
                               "gc_dsc");
  Adjacency adj(3);
  adj.set(0, 2, SkipType::DSC);
  adj.set(1, 3, SkipType::DSC);
  Block block(spec, adj, analog_cfg(), rng);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  check_gradients(block, x, 88, 1e-2f, 4e-2f);
}

TEST(BlockGradCheck, DscAcrossStride) {
  Rng rng(89);
  BlockSpec spec = linear_spec(2,
                               {NodePlan{NodeOp::Conv3x3, 4, 2, true},
                                NodePlan{NodeOp::Conv3x3, 4, 1, true},
                                NodePlan{NodeOp::Conv3x3, 4, 1, true}},
                               "gc_dsc_stride");
  Adjacency adj(3);
  adj.set(0, 3, SkipType::DSC);  // source is pre-stride: pooled skip path
  Block block(spec, adj, analog_cfg(), rng);
  Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
  check_gradients(block, x, 90, 1e-2f, 4e-2f);
}

TEST(BlockGradCheck, MixedDscAndAsc) {
  Rng rng(91);
  BlockSpec spec = linear_spec(3,
                               {NodePlan{NodeOp::Conv3x3, 3, 1, true},
                                NodePlan{NodeOp::Conv3x3, 3, 1, true},
                                NodePlan{NodeOp::Conv3x3, 3, 1, true},
                                NodePlan{NodeOp::Conv3x3, 3, 1, true}},
                               "gc_mixed");
  Adjacency adj(4);
  adj.set(0, 2, SkipType::DSC);
  adj.set(0, 3, SkipType::ASC);
  adj.set(1, 4, SkipType::DSC);
  adj.set(2, 4, SkipType::ASC);
  Block block(spec, adj, analog_cfg(), rng);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  check_gradients(block, x, 92, 1e-2f, 4e-2f);
}

TEST(BlockGradCheck, InvertedResidualShape) {
  // MobileNetV2-style node chain with the classic (0,3) ASC edge.
  Rng rng(93);
  BlockSpec spec = linear_spec(3,
                               {NodePlan{NodeOp::Conv1x1, 6, 1, true},
                                NodePlan{NodeOp::DwConv3x3, 6, 1, true},
                                NodePlan{NodeOp::Conv1x1, 3, 1, true}},
                               "gc_ir");
  Adjacency adj(3);
  adj.set(0, 3, SkipType::ASC);
  Block block(spec, adj, analog_cfg(), rng);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  check_gradients(block, x, 94, 1e-2f, 4e-2f);
}

}  // namespace
}  // namespace snnskip
