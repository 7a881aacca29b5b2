#pragma once
// 2-D convolution via im2col + GEMM, with an event-driven sparse forward
// and weight gradient.
//
// Weight layout OIHW: (out_channels, in_channels, kernel, kernel).
// Forward scans the input's density: binary/sparse spike tensors below the
// SparseExec threshold skip im2col entirely and scatter weight rows per
// active spike (tensor/spike_kernels.h); denser inputs take the im2col +
// GEMM path with the column buffer carved from the Workspace arena, so the
// per-timestep loop never touches the heap in steady state.
//
// Backward (ISSUE 4): when the sparse forward fired, the Ctx keeps the
// forward SpikeCsr instead of the dense input — dW comes straight from the
// packed events (work ∝ nnz·K²·O, bit-identical to gemm_nt) and the
// retained-activation footprint drops from N·C·H·W floats to the event
// list. Dense contexts keep the input and recompute im2col into the arena
// (K*K less retained memory than saving columns). dX is always gemm_tn +
// col2im: the BatchNormTT above every conv hands it a dense gradient.

#include "nn/layer.h"
#include "tensor/im2col.h"
#include "tensor/spike_csr.h"
#include "util/rng.h"

namespace snnskip {

class Conv2d final : public Layer {
 public:
  /// Kaiming-normal initialized convolution.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         bool bias, Rng& rng, std::string layer_name = "conv2d");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void reset_state() override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return name_; }
  std::int64_t macs(const Shape& in) const override;
  Shape output_shape(const Shape& in) const override;

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

  /// First-layer optimization: when the layer's input gradient is known to
  /// be discarded (the network's stem conv — nothing is below it),
  /// backward skips the whole dX computation and returns zeros.
  void set_input_grad_needed(bool needed) { input_grad_needed_ = needed; }
  bool input_grad_needed() const { return input_grad_needed_; }

 private:
  struct Ctx {
    Tensor input;        // dense fallback; empty when `sparse`
    SpikeCsr input_csr;  // forward event packing when `sparse`
    Shape in_shape;
    bool sparse = false;
    std::int64_t bytes = 0;  // retained-activation accounting
  };

  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  bool input_grad_needed_ = true;
  std::string name_;
  Parameter weight_;
  Parameter bias_;
  std::vector<Ctx> saved_;
  SpikeCsr csr_;  // forward event-list scratch (moved into Ctx when the
                  // sparse path fires in train mode)
};

}  // namespace snnskip
