// Micro-benchmark for the event-driven sparse BPTT backward (ISSUE 4).
//
// Sweeps firing rate x channel count over ResNet-18S-shaped 3x3 convs and
// times a combined train-mode forward + backward pass with the sparse
// path on (event forward, dW from the saved events) vs forced dense,
// emitting BENCH_spike_bptt.json (mean ns/step per mode, speedup, achieved
// input/gradient density, and the retained BPTT context bytes for each
// mode).
//
// The gradient fed to backward is the one a conv receives in training:
// every conv feeds BatchNormTT, whose train-mode backward mixes every
// element of a channel, so the conv sees a dense tensor. dX is therefore
// the dense gemm_tn + col2im in both modes.
//
// Unlike the forward-path bench (1e-4 tolerance), the backward kernels
// promise BIT-FOR-BIT equality with the dense gemm path, so every
// configuration cross-checks dW and dX with max_abs_diff == 0. The ctest
// smoke variant (--smoke 1) keeps one tiny config so tier-1 runs exercise
// this exactness check without paying for the timing sweep.
//
// Usage: micro_spike_bptt [--smoke 1] [--out BENCH_spike_bptt.json]
//                         [--min-ms 50]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "nn/batchnorm_tt.h"
#include "nn/conv2d.h"
#include "telemetry/retained.h"
#include "tensor/spike_kernels.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace snnskip {
namespace {

struct ConvShape {
  std::int64_t channels;
  std::int64_t hw;  // square spatial size
};

// The gradient BNTT hands the conv: one train-mode BatchNormTT forward on
// the conv's output, then its backward of an N(0,1) dL/dx from the neuron
// above (the default FastSigmoid surrogate is nonzero everywhere).
Tensor bntt_grad(Conv2d& conv, const Tensor& x, Rng& rng) {
  const Tensor y = conv.forward(x, /*train=*/false);
  BatchNormTT bn(conv.out_channels(), /*max_timesteps=*/1);
  (void)bn.forward(y, /*train=*/true);
  return bn.backward(Tensor::randn(y.shape(), rng));
}

// One train-mode step: zero grads, forward, backward. Returns dX.
Tensor step(Conv2d& conv, const Tensor& x, const Tensor& g) {
  conv.weight().zero_grad();
  (void)conv.forward(x, /*train=*/true);
  return conv.backward(g);
}

// Mean ns per combined fwd+bwd step, timing until `min_ms` of work.
double time_step_ns(Conv2d& conv, const Tensor& x, const Tensor& g,
                    double min_ms) {
  for (int i = 0; i < 3; ++i) (void)step(conv, x, g);  // warm up arena
  std::int64_t reps = 0;
  Timer t;
  do {
    (void)step(conv, x, g);
    ++reps;
  } while (t.elapsed_ms() < min_ms);
  return t.elapsed_s() * 1e9 / static_cast<double>(reps);
}

// Retained context bytes right after a train-mode forward.
std::int64_t retained_after_forward(Conv2d& conv, const Tensor& x,
                                    const Tensor& g) {
  const std::int64_t before = RetainedActivations::current();
  (void)conv.forward(x, /*train=*/true);
  const std::int64_t held = RetainedActivations::current() - before;
  (void)conv.backward(g);  // pop the context again
  return held;
}

}  // namespace

int run(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool smoke = args.get_int("smoke", 0) != 0;
  const double min_ms = args.get_double("min-ms", smoke ? 2.0 : 50.0);
  const std::string out_path = args.get("out", "BENCH_spike_bptt.json");

  std::vector<ConvShape> shapes;
  std::vector<double> rates;
  if (smoke) {
    shapes = {{16, 8}};
    rates = {0.05, 0.50};
  } else {
    shapes = {{64, 32}, {128, 16}, {256, 8}};
    rates = {0.01, 0.05, 0.10, 0.15, 0.25, 0.50};
  }

  JsonArrayWriter json(out_path);
  if (!json.ok()) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("%8s %6s %6s %12s %12s %9s %9s %12s %12s\n", "channels", "hw",
              "rate", "sparse_ns", "dense_ns", "speedup", "density",
              "held_sparse", "held_dense");

  const bool fwd_was = SparseExec::enabled();
  bool all_equal = true;
  for (const ConvShape& sh : shapes) {
    Rng rng(42);
    Conv2d conv(sh.channels, sh.channels, 3, 1, 1, /*bias=*/false, rng,
                "bench_conv");
    for (double rate : rates) {
      const Shape in_shape{1, sh.channels, sh.hw, sh.hw};
      Tensor x = Tensor::bernoulli(in_shape, rng, static_cast<float>(rate));
      Tensor g = bntt_grad(conv, x, rng);
      const double in_density = x.nonzero_fraction();
      const double grad_density = g.nonzero_fraction();

      SparseExec::set_enabled(true);
      Tensor dx_sparse = step(conv, x, g);
      Tensor dw_sparse = conv.weight().grad;
      const std::int64_t held_sparse = retained_after_forward(conv, x, g);
      const double sparse_ns = time_step_ns(conv, x, g, min_ms);

      SparseExec::set_enabled(false);
      Tensor dx_dense = step(conv, x, g);
      Tensor dw_dense = conv.weight().grad;
      const std::int64_t held_dense = retained_after_forward(conv, x, g);
      const double dense_ns = time_step_ns(conv, x, g, min_ms);

      // The backward contract is bitwise, not approximate.
      const float dw_diff = Tensor::max_abs_diff(dw_sparse, dw_dense);
      const float dx_diff = Tensor::max_abs_diff(dx_sparse, dx_dense);
      if (dw_diff != 0.f || dx_diff != 0.f) {
        std::fprintf(stderr,
                     "FAIL: sparse/dense gradient mismatch dW=%.3g dX=%.3g "
                     "(C=%lld rate=%.2f)\n",
                     static_cast<double>(dw_diff),
                     static_cast<double>(dx_diff),
                     static_cast<long long>(sh.channels), rate);
        all_equal = false;
      }

      const double speedup = sparse_ns > 0.0 ? dense_ns / sparse_ns : 0.0;
      std::printf(
          "%8lld %6lld %6.2f %12.0f %12.0f %8.2fx %9.3f %12lld %12lld\n",
          static_cast<long long>(sh.channels),
          static_cast<long long>(sh.hw), rate, sparse_ns, dense_ns, speedup,
          in_density, static_cast<long long>(held_sparse),
          static_cast<long long>(held_dense));

      json.begin_row();
      json.field("channels", static_cast<double>(sh.channels));
      json.field("hw", static_cast<double>(sh.hw));
      json.field("firing_rate", rate);
      json.field("achieved_density", in_density);
      json.field("grad_density", grad_density);
      json.field("sparse_ns_per_step", sparse_ns);
      json.field("dense_ns_per_step", dense_ns);
      json.field("speedup_vs_dense", speedup);
      json.field("retained_bytes_sparse", static_cast<double>(held_sparse));
      json.field("retained_bytes_dense", static_cast<double>(held_dense));
      benchcfg::provenance_fields(json);
      json.end_row();
    }
  }
  SparseExec::set_enabled(fwd_was);

  if (!all_equal) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace snnskip

int main(int argc, char** argv) { return snnskip::run(argc, argv); }
