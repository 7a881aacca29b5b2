#include "snn/lif.h"

#include <cassert>

#include "telemetry/retained.h"
#include "telemetry/telemetry.h"

namespace snnskip {

Lif::Lif(LifConfig cfg, std::string layer_name)
    : cfg_(cfg), name_(std::move(layer_name)) {}

Tensor Lif::forward(const Tensor& x, bool train) {
  SNNSKIP_SPAN("lif.fwd", name_);
  if (!has_state_ || membrane_.shape() != x.shape()) {
    membrane_ = Tensor(x.shape());
    if (cfg_.refractory > 0) refrac_count_ = Tensor(x.shape());
    has_state_ = true;
  }

  const bool use_refrac = cfg_.refractory > 0;
  Tensor spikes(x.shape());
  TrainCtx ctx;
  ctx.u = Tensor(x.shape());
  if (train && use_refrac) ctx.live_mask = Tensor::full(x.shape(), 1.f);

  const std::int64_t n = x.numel();
  float* v = membrane_.data();
  const float* in = x.data();
  float* s = spikes.data();
  float* uptr = ctx.u.data();
  float* rc = use_refrac ? refrac_count_.data() : nullptr;
  double spike_count = 0.0;

  for (std::int64_t i = 0; i < n; ++i) {
    const float vt = cfg_.beta * v[i] + in[i];
    const float dist = vt - cfg_.threshold;
    uptr[i] = dist;
    bool live = true;
    if (use_refrac && rc[i] > 0.f) {
      live = false;
      rc[i] -= 1.f;
      if (train) ctx.live_mask[static_cast<std::size_t>(i)] = 0.f;
    }
    if (live && dist >= 0.f) {
      s[i] = 1.f;
      v[i] = vt - cfg_.threshold;
      if (use_refrac) rc[i] = static_cast<float>(cfg_.refractory);
      spike_count += 1.0;
    } else {
      s[i] = 0.f;
      v[i] = vt;
    }
  }

  if (recorder_ != nullptr) {
    recorder_->record(name_, spike_count, static_cast<double>(n));
  }
  Telemetry::count("spikes", spike_count);
  if (train) {
    ctx.bytes = (ctx.u.numel() + ctx.live_mask.numel()) *
                static_cast<std::int64_t>(sizeof(float));
    RetainedActivations::add(ctx.bytes);
    saved_.push_back(std::move(ctx));
  }
  return spikes;
}

Tensor Lif::backward(const Tensor& grad_out) {
  SNNSKIP_SPAN("lif.bwd", name_);
  assert(!saved_.empty() && "Lif::backward without matching forward");
  TrainCtx ctx = std::move(saved_.back());
  saved_.pop_back();
  RetainedActivations::sub(ctx.bytes);
  assert(grad_out.shape() == ctx.u.shape());

  if (!has_carry_ || grad_v_carry_.shape() != ctx.u.shape()) {
    grad_v_carry_ = Tensor(ctx.u.shape());
    has_carry_ = true;
  }

  Tensor grad_in(ctx.u.shape());
  const std::int64_t n = ctx.u.numel();
  const float* go = grad_out.data();
  const float* uptr = ctx.u.data();
  const float* live = ctx.live_mask.empty() ? nullptr : ctx.live_mask.data();
  float* carry = grad_v_carry_.data();
  float* gi = grad_in.data();
  const float theta = cfg_.threshold;
  const bool detach = cfg_.detach_reset;

  for (std::int64_t i = 0; i < n; ++i) {
    // Refractory-silenced steps contribute no spike gradient.
    const float gate = live ? live[i] : 1.f;
    const float sg = gate * cfg_.surrogate.grad(uptr[i]);
    // dL/dV_t: output path + recurrent path (optionally through the reset).
    float dv = go[i] * sg;
    if (detach) {
      dv += carry[i];
    } else {
      dv += carry[i] * (1.f - theta * sg);
    }
    gi[i] = dv;
    carry[i] = cfg_.beta * dv;  // becomes dL/dV'_{t-1}
  }
  return grad_in;
}

void Lif::reset_state() {
  has_state_ = false;
  has_carry_ = false;
  membrane_ = Tensor();
  refrac_count_ = Tensor();
  grad_v_carry_ = Tensor();
  for (const TrainCtx& c : saved_) RetainedActivations::sub(c.bytes);
  saved_.clear();
}

}  // namespace snnskip
