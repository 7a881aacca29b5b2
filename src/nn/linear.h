#pragma once
// Fully connected layer. Input (N, in_features), weight (out, in).
// Sparse spike inputs below the SparseExec density threshold take an
// event-driven path (one weight-column axpy per active feature) instead of
// the dense GEMM. Backward mirrors it (ISSUE 4): sparse forward contexts
// keep the SpikeCsr instead of the dense input and drive dW from events,
// bit-identical to the dense GEMM. dX is always the dense GEMM: the only
// linear in the model families is the classifier head (DESIGN.md §5e).

#include "nn/layer.h"
#include "tensor/spike_csr.h"
#include "util/rng.h"

namespace snnskip {

class Linear final : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
         Rng& rng, std::string layer_name = "linear");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void reset_state() override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }
  std::int64_t macs(const Shape& in) const override;
  Shape output_shape(const Shape& in) const override;

  std::int64_t in_features() const { return in_f_; }
  std::int64_t out_features() const { return out_f_; }
  bool has_bias() const { return has_bias_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  struct Ctx {
    Tensor input;        // dense fallback; empty when `sparse`
    SpikeCsr input_csr;  // forward event packing when `sparse`
    std::int64_t n = 0;  // batch rows
    bool sparse = false;
    std::int64_t bytes = 0;  // retained-activation accounting
  };

  std::int64_t in_f_, out_f_;
  bool has_bias_;
  std::string name_;
  Parameter weight_;
  Parameter bias_;
  std::vector<Ctx> saved_;
  SpikeCsr csr_;  // forward event-list scratch (moved into Ctx when the
                  // sparse path fires in train mode)
};

/// Collapse (N, C, H, W) to (N, C*H*W); pure reshape with exact backward.
class Flatten final : public Layer {
 public:
  Flatten() = default;
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void reset_state() override { saved_shapes_.clear(); }
  std::string name() const override { return "flatten"; }
  Shape output_shape(const Shape& in) const override;

 private:
  std::vector<Shape> saved_shapes_;
};

}  // namespace snnskip
