#include "nn/conv2d.h"

#include <cassert>
#include <cmath>

#include "parallel/parallel_for.h"
#include "telemetry/retained.h"
#include "telemetry/telemetry.h"
#include "tensor/gemm.h"
#include "tensor/spike_kernels.h"
#include "tensor/workspace.h"

namespace snnskip {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias, Rng& rng, std::string layer_name)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      name_(std::move(layer_name)) {
  // Kaiming-normal for (leaky-)ReLU-like nonlinearities; surrogate-gradient
  // LIF layers behave similarly at initialization.
  const float fan_in = static_cast<float>(in_c_ * kernel_ * kernel_);
  const float stddev = std::sqrt(2.f / fan_in);
  weight_ = Parameter(
      name_ + ".weight",
      Tensor::randn(Shape{out_c_, in_c_, kernel_, kernel_}, rng, 0.f, stddev));
  bias_ = Parameter(name_ + ".bias", Tensor(Shape{out_c_}));
}

Shape Conv2d::output_shape(const Shape& in) const {
  assert(in.ndim() == 4 && in[1] == in_c_);
  const ConvGeometry g{in[1], in[2], in[3], kernel_, stride_, pad_};
  return Shape{in[0], out_c_, g.out_h(), g.out_w()};
}

std::int64_t Conv2d::macs(const Shape& in) const {
  const ConvGeometry g{in[1], in[2], in[3], kernel_, stride_, pad_};
  return in[0] * out_c_ * g.col_rows() * g.col_cols();
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  assert(s.ndim() == 4);
  assert(s[1] == in_c_ && "Conv2d: input channel mismatch");
  const std::int64_t n = s[0];
  const ConvGeometry g{s[1], s[2], s[3], kernel_, stride_, pad_};
  const std::int64_t cr = g.col_rows(), cc = g.col_cols();

  Tensor out(Shape{n, out_c_, g.out_h(), g.out_w()});

  const std::int64_t row_len = in_c_ * s[2] * s[3];
  bool sparse = false;
  if (SparseExec::enabled()) {
    const std::int64_t nnz = count_nonzero(x.data(), x.numel());
    sparse = static_cast<double>(nnz) <
             static_cast<double>(SparseExec::threshold()) *
                 static_cast<double>(x.numel());
    SparseExec::note(static_cast<double>(nnz),
                     static_cast<double>(x.numel()), sparse);
  }

  SNNSKIP_SPAN(sparse ? "conv.fwd.sparse" : "conv.fwd.dense", name_);
  if (sparse) {
    csr_.build(x.data(), n, row_len);
    spike_conv2d_forward(g, csr_, weight_.value.data(),
                         has_bias_ ? bias_.value.data() : nullptr, out_c_,
                         out.data(), Workspace::tls());
  } else {
    auto scope = Workspace::tls().scope();
    float* col_ptr = scope.floats(static_cast<std::size_t>(cr * cc));
    for (std::int64_t img = 0; img < n; ++img) {
      im2col(g, x.data() + img * row_len, col_ptr);
      // out_img(O, HoWo) = W(O, CKK) * cols(CKK, HoWo)
      gemm(out_c_, cc, cr, 1.f, weight_.value.data(), col_ptr, 0.f,
           out.data() + img * out_c_ * cc);
      if (has_bias_) {
        float* o = out.data() + img * out_c_ * cc;
        for (std::int64_t ch = 0; ch < out_c_; ++ch) {
          const float b = bias_.value[static_cast<std::size_t>(ch)];
          for (std::int64_t p = 0; p < cc; ++p) o[ch * cc + p] += b;
        }
      }
    }
  }
  if (train) {
    Ctx ctx;
    ctx.in_shape = s;
    // Keep the packed events instead of the dense input whenever the
    // sparse forward ran them — the event-driven dW is bit-identical to
    // gemm_nt, and the retained footprint drops from N*C*H*W floats to the
    // event list.
    ctx.sparse = sparse;
    if (ctx.sparse) {
      ctx.input_csr = std::move(csr_);
      ctx.bytes = ctx.input_csr.retained_bytes();
    } else {
      ctx.input = x;
      ctx.bytes = x.numel() * static_cast<std::int64_t>(sizeof(float));
    }
    RetainedActivations::add(ctx.bytes);
    saved_.push_back(std::move(ctx));
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  assert(!saved_.empty() && "Conv2d::backward without matching forward");
  Ctx ctx = std::move(saved_.back());
  saved_.pop_back();
  RetainedActivations::sub(ctx.bytes);

  const Shape& in_s = ctx.in_shape;
  const std::int64_t n = in_s[0];
  const ConvGeometry g{in_s[1], in_s[2], in_s[3], kernel_, stride_, pad_};
  const std::int64_t cr = g.col_rows(), cc = g.col_cols();
  assert(grad_out.shape()[0] == n && grad_out.shape()[1] == out_c_);

  SparseExec::note_bwd(ctx.sparse);
  SNNSKIP_SPAN(ctx.sparse ? "conv.bwd.sparse" : "conv.bwd.dense", name_);
  Workspace& ws = Workspace::tls();

  if (ctx.sparse) {
    // dW straight from the forward events (bit-identical to the gemm_nt
    // accumulation, see spike_kernels.h).
    spike_conv2d_backward_weight(g, ctx.input_csr, grad_out.data(), out_c_,
                                 weight_.grad.data(), ws);
  } else {
    auto scope = ws.scope();
    float* col_ptr = scope.floats(static_cast<std::size_t>(cr * cc));
    for (std::int64_t img = 0; img < n; ++img) {
      const float* go = grad_out.data() + img * out_c_ * cc;
      // Recompute this image's columns from the saved input — im2col is a
      // pure gather, so the values match the forward pass bit-for-bit.
      im2col(g, ctx.input.data() + img * in_s[1] * in_s[2] * in_s[3],
             col_ptr);
      // dW(O, CKK) += gO(O, HoWo) * cols(CKK, HoWo)^T
      gemm_nt(out_c_, cr, cc, 1.f, go, col_ptr, 1.f, weight_.grad.data());
    }
  }

  if (has_bias_) {
    // Per-channel reduction over (N, HoWo), channels partitioned across
    // the pool. Each channel keeps the old image-major scalar accumulation
    // order, so the hoisted pass is bitwise-identical to the per-image
    // loop it replaces.
    const float* gall = grad_out.data();
    float* bgrad = bias_.grad.data();
    parallel_for_range(
        0, static_cast<std::size_t>(out_c_),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t ch = b; ch < e; ++ch) {
            for (std::int64_t img = 0; img < n; ++img) {
              const float* go =
                  gall + (img * out_c_ + static_cast<std::int64_t>(ch)) * cc;
              float acc = 0.f;
              for (std::int64_t p = 0; p < cc; ++p) acc += go[p];
              bgrad[ch] += acc;
            }
          }
        });
  }

  Tensor grad_in(in_s);
  if (input_grad_needed_) {
    auto scope = ws.scope();
    float* grad_cols = scope.floats(static_cast<std::size_t>(cr * cc));
    for (std::int64_t img = 0; img < n; ++img) {
      const float* go = grad_out.data() + img * out_c_ * cc;
      // dcols(CKK, HoWo) = W(O, CKK)^T * gO(O, HoWo)
      gemm_tn(cr, cc, out_c_, 1.f, weight_.value.data(), go, 0.f, grad_cols);
      col2im(g, grad_cols, grad_in.data() + img * in_s[1] * in_s[2] * in_s[3]);
    }
  }
  return grad_in;
}

void Conv2d::reset_state() {
  for (const Ctx& c : saved_) RetainedActivations::sub(c.bytes);
  saved_.clear();
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace snnskip
