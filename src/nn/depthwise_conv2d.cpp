#include "nn/depthwise_conv2d.h"

#include <cassert>
#include <cmath>

#include "telemetry/retained.h"
#include "telemetry/telemetry.h"
#include "tensor/spike_kernels.h"

namespace snnskip {

DepthwiseConv2d::DepthwiseConv2d(std::int64_t channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t pad,
                                 bool bias, Rng& rng, std::string layer_name)
    : c_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      name_(std::move(layer_name)) {
  const float fan_in = static_cast<float>(kernel_ * kernel_);
  const float stddev = std::sqrt(2.f / fan_in);
  weight_ = Parameter(name_ + ".weight",
                      Tensor::randn(Shape{c_, 1, kernel_, kernel_}, rng, 0.f,
                                    stddev));
  bias_ = Parameter(name_ + ".bias", Tensor(Shape{c_}));
}

Shape DepthwiseConv2d::output_shape(const Shape& in) const {
  assert(in.ndim() == 4 && in[1] == c_);
  const std::int64_t ho = (in[2] + 2 * pad_ - kernel_) / stride_ + 1;
  const std::int64_t wo = (in[3] + 2 * pad_ - kernel_) / stride_ + 1;
  return Shape{in[0], c_, ho, wo};
}

std::int64_t DepthwiseConv2d::macs(const Shape& in) const {
  const Shape out = output_shape(in);
  return in[0] * c_ * kernel_ * kernel_ * out[2] * out[3];
}

Tensor DepthwiseConv2d::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  assert(s.ndim() == 4 && s[1] == c_);
  const std::int64_t n = s[0], h = s[2], w = s[3];
  const Shape os = output_shape(s);
  const std::int64_t ho = os[2], wo = os[3];
  Tensor out(os);

  bool sparse = false;
  if (SparseExec::enabled()) {
    const std::int64_t nnz = count_nonzero(x.data(), x.numel());
    sparse = static_cast<double>(nnz) <
             static_cast<double>(SparseExec::threshold()) *
                 static_cast<double>(x.numel());
    SparseExec::note(static_cast<double>(nnz),
                     static_cast<double>(x.numel()), sparse);
  }
  SNNSKIP_SPAN(sparse ? "dwconv.fwd.sparse" : "dwconv.fwd.dense", name_);
  if (sparse) {
    const ConvGeometry g{c_, h, w, kernel_, stride_, pad_};
    csr_.build(x.data(), n, c_ * h * w);
    spike_depthwise_forward(g, csr_, weight_.value.data(),
                            has_bias_ ? bias_.value.data() : nullptr,
                            out.data());
    if (train) save_ctx(x, /*sparse=*/true);
    return out;
  }

  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c_; ++ch) {
      const float* plane = x.data() + (img * c_ + ch) * h * w;
      const float* ker = weight_.value.data() + ch * kernel_ * kernel_;
      float* optr = out.data() + (img * c_ + ch) * ho * wo;
      const float b = has_bias_ ? bias_.value[static_cast<std::size_t>(ch)] : 0.f;
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          float acc = b;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const std::int64_t iy = oy * stride_ - pad_ + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const std::int64_t ix = ox * stride_ - pad_ + kx;
              if (ix < 0 || ix >= w) continue;
              acc += ker[ky * kernel_ + kx] * plane[iy * w + ix];
            }
          }
          optr[oy * wo + ox] = acc;
        }
      }
    }
  }
  if (train) save_ctx(x, /*sparse=*/false);
  return out;
}

void DepthwiseConv2d::save_ctx(const Tensor& x, bool sparse) {
  Ctx ctx;
  ctx.in_shape = x.shape();
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

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  assert(!saved_.empty());
  Ctx ctx = std::move(saved_.back());
  saved_.pop_back();
  RetainedActivations::sub(ctx.bytes);

  const Shape& s = ctx.in_shape;
  const std::int64_t n = s[0], h = s[2], w = s[3];
  const Shape os = grad_out.shape();
  const std::int64_t ho = os[2], wo = os[3];
  SparseExec::note_bwd(ctx.sparse);
  SNNSKIP_SPAN(ctx.sparse ? "dwconv.bwd.sparse" : "dwconv.bwd.dense", name_);

  Tensor grad_in(s);
  if (ctx.sparse) {
    // dW from the forward events (bit-identical: for each weight tap the
    // dense loop visits the same nonzero (input, grad) products in the
    // same (image, output-position) order).
    const ConvGeometry geom{c_, h, w, kernel_, stride_, pad_};
    spike_depthwise_backward_weight(geom, ctx.input_csr, grad_out.data(),
                                    weight_.grad.data());
    // dX and bias need only grad_out: same loop as the dense path below
    // minus the dW line, so gi/gb accumulate in the identical order.
    for (std::int64_t img = 0; img < n; ++img) {
      for (std::int64_t ch = 0; ch < c_; ++ch) {
        const float* go = grad_out.data() + (img * c_ + ch) * ho * wo;
        const float* ker = weight_.value.data() + ch * kernel_ * kernel_;
        float* gi = grad_in.data() + (img * c_ + ch) * h * w;
        float gb = 0.f;
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          for (std::int64_t ox = 0; ox < wo; ++ox) {
            const float g = go[oy * wo + ox];
            if (g == 0.f) continue;
            gb += g;
            for (std::int64_t ky = 0; ky < kernel_; ++ky) {
              const std::int64_t iy = oy * stride_ - pad_ + ky;
              if (iy < 0 || iy >= h) continue;
              for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                const std::int64_t ix = ox * stride_ - pad_ + kx;
                if (ix < 0 || ix >= w) continue;
                gi[iy * w + ix] += g * ker[ky * kernel_ + kx];
              }
            }
          }
        }
        if (has_bias_) bias_.grad[static_cast<std::size_t>(ch)] += gb;
      }
    }
    return grad_in;
  }

  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t ch = 0; ch < c_; ++ch) {
      const float* plane = ctx.input.data() + (img * c_ + ch) * h * w;
      const float* go = grad_out.data() + (img * c_ + ch) * ho * wo;
      const float* ker = weight_.value.data() + ch * kernel_ * kernel_;
      float* gw = weight_.grad.data() + ch * kernel_ * kernel_;
      float* gi = grad_in.data() + (img * c_ + ch) * h * w;
      float gb = 0.f;
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          const float g = go[oy * wo + ox];
          if (g == 0.f) continue;
          gb += g;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const std::int64_t iy = oy * stride_ - pad_ + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const std::int64_t ix = ox * stride_ - pad_ + kx;
              if (ix < 0 || ix >= w) continue;
              gw[ky * kernel_ + kx] += g * plane[iy * w + ix];
              gi[iy * w + ix] += g * ker[ky * kernel_ + kx];
            }
          }
        }
      }
      if (has_bias_) bias_.grad[static_cast<std::size_t>(ch)] += gb;
    }
  }
  return grad_in;
}

void DepthwiseConv2d::reset_state() {
  for (const Ctx& c : saved_) RetainedActivations::sub(c.bytes);
  saved_.clear();
}

std::vector<Parameter*> DepthwiseConv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace snnskip
