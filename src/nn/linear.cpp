#include "nn/linear.h"

#include <cassert>
#include <cmath>

#include "telemetry/retained.h"
#include "telemetry/telemetry.h"
#include "tensor/gemm.h"
#include "tensor/spike_kernels.h"
#include "tensor/workspace.h"

namespace snnskip {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
               Rng& rng, std::string layer_name)
    : in_f_(in_features),
      out_f_(out_features),
      has_bias_(bias),
      name_(std::move(layer_name)) {
  const float stddev = std::sqrt(2.f / static_cast<float>(in_f_));
  weight_ = Parameter(name_ + ".weight",
                      Tensor::randn(Shape{out_f_, in_f_}, rng, 0.f, stddev));
  bias_ = Parameter(name_ + ".bias", Tensor(Shape{out_f_}));
}

Shape Linear::output_shape(const Shape& in) const {
  assert(in.ndim() == 2 && in[1] == in_f_);
  return Shape{in[0], out_f_};
}

std::int64_t Linear::macs(const Shape& in) const {
  return in[0] * in_f_ * out_f_;
}

Tensor Linear::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  assert(s.ndim() == 2 && s[1] == in_f_);
  const std::int64_t n = s[0];
  Tensor out(Shape{n, out_f_});

  bool sparse = false;
  if (SparseExec::enabled()) {
    const std::int64_t nnz = count_nonzero(x.data(), x.numel());
    sparse = static_cast<double>(nnz) <
             static_cast<double>(SparseExec::threshold()) *
                 static_cast<double>(x.numel());
    SparseExec::note(static_cast<double>(nnz),
                     static_cast<double>(x.numel()), sparse);
  }

  SNNSKIP_SPAN(sparse ? "linear.fwd.sparse" : "linear.fwd.dense", name_);
  if (sparse) {
    // Event-driven path: per active input feature, one axpy of the
    // corresponding (transposed) weight column.
    csr_.build(x.data(), n, in_f_);
    spike_linear_forward(csr_, weight_.value.data(),
                         has_bias_ ? bias_.value.data() : nullptr, out_f_,
                         out.data(), Workspace::tls());
  } else {
    // out(N, O) = x(N, I) * W(O, I)^T
    gemm_nt(n, out_f_, in_f_, 1.f, x.data(), weight_.value.data(), 0.f,
            out.data());
    if (has_bias_) {
      for (std::int64_t i = 0; i < n; ++i) {
        float* row = out.data() + i * out_f_;
        for (std::int64_t j = 0; j < out_f_; ++j) {
          row[j] += bias_.value[static_cast<std::size_t>(j)];
        }
      }
    }
  }
  if (train) {
    Ctx ctx;
    ctx.n = n;
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

Tensor Linear::backward(const Tensor& grad_out) {
  assert(!saved_.empty());
  Ctx ctx = std::move(saved_.back());
  saved_.pop_back();
  RetainedActivations::sub(ctx.bytes);

  const std::int64_t n = ctx.n;
  assert(grad_out.shape()[0] == n && grad_out.shape()[1] == out_f_);

  SparseExec::note_bwd(ctx.sparse);
  SNNSKIP_SPAN(ctx.sparse ? "linear.bwd.sparse" : "linear.bwd.dense", name_);

  if (ctx.sparse) {
    spike_linear_backward_weight(ctx.input_csr, grad_out.data(), out_f_,
                                 weight_.grad.data(), Workspace::tls());
  } else {
    // dW(O, I) += gO(N, O)^T * x(N, I)
    gemm_tn(out_f_, in_f_, n, 1.f, grad_out.data(), ctx.input.data(), 1.f,
            weight_.grad.data());
  }
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float* row = grad_out.data() + i * out_f_;
      for (std::int64_t j = 0; j < out_f_; ++j) {
        bias_.grad[static_cast<std::size_t>(j)] += row[j];
      }
    }
  }
  // dX(N, I) = gO(N, O) * W(O, I)
  Tensor grad_in(Shape{n, in_f_});
  gemm(n, in_f_, out_f_, 1.f, grad_out.data(), weight_.value.data(), 0.f,
       grad_in.data());
  return grad_in;
}

void Linear::reset_state() {
  for (const Ctx& c : saved_) RetainedActivations::sub(c.bytes);
  saved_.clear();
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  const Shape& s = x.shape();
  assert(s.ndim() >= 2);
  if (train) saved_shapes_.push_back(s);
  return x.reshape(output_shape(s));
}

Tensor Flatten::backward(const Tensor& grad_out) {
  assert(!saved_shapes_.empty());
  Shape s = std::move(saved_shapes_.back());
  saved_shapes_.pop_back();
  return grad_out.reshape(std::move(s));
}

Shape Flatten::output_shape(const Shape& in) const {
  std::int64_t rest = 1;
  for (std::size_t i = 1; i < in.ndim(); ++i) rest *= in[i];
  return Shape{in[0], rest};
}

}  // namespace snnskip
