#include "infer/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "tensor/epilogue.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/kernel_config.h"
#include "tensor/quant_kernels.h"
#include "tensor/spike_kernels.h"
#include "tensor/spike_packed.h"
#include "telemetry/telemetry.h"

namespace snnskip::infer {

ExecOptions ExecOptions::defaults() {
  return ExecOptions{kernel_config().infer_threshold};
}

Engine::Engine(PlanPtr plan, const ExecOptions& opts)
    : plan_(std::move(plan)), opts_(opts) {
  const std::string m =
      plan_->model_name.empty() ? "model" : plan_->model_name;
  ctr_steps_ = "infer.steps." + m;
  ctr_spikes_ = "infer.spikes_popcount." + m;
  ctr_synops_ = "infer.synops." + m;
  ctr_packed_ = "infer.packed_layers." + m;
  ctr_dense_ = "infer.dense_layers." + m;
  farena_.assign(static_cast<std::size_t>(plan_->float_arena), 0.f);
  warena_.assign(static_cast<std::size_t>(plan_->word_arena), 0u);
  sarena_.assign(static_cast<std::size_t>(plan_->state_arena), 0.f);
  scratch_.assign(static_cast<std::size_t>(plan_->scratch_floats), 0.f);
  popcnt_.assign(plan_->values.size(), 0);
  pvalid_.assign(plan_->values.size(), 0);
}

Engine::Engine(PlanPtr plan) : Engine(std::move(plan), ExecOptions::defaults()) {}

float* Engine::dense(int v) {
  return farena_.data() + val(v).dense_off;
}

std::uint64_t* Engine::words(int v) {
  return warena_.data() + val(v).packed_off;
}

void Engine::reset() {
  std::fill(sarena_.begin(), sarena_.end(), 0.f);
  t_ = 0;
}

Tensor Engine::step(const Tensor& x) {
  Tensor out(plan_->output_shape);
  step(x, &out);
  return out;
}

void Engine::step(const Tensor& x, Tensor* out) {
  step(x, out, plan_->input_shape[0]);
}

void Engine::step(const Tensor& x, Tensor* out, std::int64_t active) {
  SNNSKIP_SPAN("infer.step", plan_->model_name);
  if (x.shape() != plan_->input_shape) {
    throw std::invalid_argument(
        "infer::Engine::step: input shape does not match the compiled plan");
  }
  if (active < 1 || active > plan_->input_shape[0]) {
    throw std::invalid_argument(
        "infer::Engine::step: active must be in [1, batch]");
  }
  active_ = active;
  const std::int64_t spikes0 = stats_.spikes;
  const std::int64_t synops0 = stats_.synops;

  write_input(x);
  for (std::size_t i = 0; i < plan_->ops.size(); ++i) {
    cur_op_ = i;  // calibration-sink slot for this op
    exec_op(plan_->ops[i]);
  }

  const ValuePlan& ov = val(plan_->output_value);
  if (out->shape() != ov.shape) *out = Tensor(ov.shape);
  std::memcpy(out->data(), dense(plan_->output_value),
              static_cast<std::size_t>(active_ * (ov.floats / ov.shape[0])) *
                  sizeof(float));

  ++t_;
  ++stats_.steps;
  Telemetry::count("infer.steps");
  Telemetry::count(ctr_steps_.c_str());
  Telemetry::count("infer.spikes_popcount",
                   static_cast<double>(stats_.spikes - spikes0));
  Telemetry::count(ctr_spikes_.c_str(),
                   static_cast<double>(stats_.spikes - spikes0));
  Telemetry::count("infer.synops",
                   static_cast<double>(stats_.synops - synops0));
  Telemetry::count(ctr_synops_.c_str(),
                   static_cast<double>(stats_.synops - synops0));
}

void Engine::write_input(const Tensor& x) {
  const int iv = plan_->input_value;
  const ValuePlan& v = val(iv);
  const std::int64_t img_f = v.floats / v.shape[0];
  const std::int64_t img_w = v.words / v.shape[0];
  std::memcpy(dense(iv), x.data(),
              static_cast<std::size_t>(active_ * img_f) * sizeof(float));
  std::int64_t total = 0;
  bool binary = true;
  for (std::int64_t img = 0; img < active_ && binary; ++img) {
    const std::int64_t r =
        spike_pack(x.data() + img * img_f, img_f, words(iv) + img * img_w);
    if (r < 0) {
      binary = false;
    } else {
      total += r;
    }
  }
  if (binary) {
    pvalid_[static_cast<std::size_t>(iv)] = 1;
    popcnt_[static_cast<std::size_t>(iv)] = total;
  } else {
    if (plan_->precision == Precision::Int8) {
      // Int8 plans fix the stem's quantization step at exactly 1.0 on
      // the promise that the network input is a binary spike train (the
      // repo's encoders all emit one). Quantizing an analog frame with
      // step 1.0 would round it to small integers — reject loudly
      // instead of silently destroying the input.
      throw std::invalid_argument(
          "infer::Engine::step: int8 plans require binary (0/1) spike "
          "inputs; encode analog frames before stepping");
    }
    // Non-binary input (e.g. raw analog frames): dense mirror only, so
    // its consumers dispatch dense.
    pvalid_[static_cast<std::size_t>(iv)] = 0;
    popcnt_[static_cast<std::size_t>(iv)] =
        count_nonzero(x.data(), active_ * img_f);
  }
}

void Engine::record_amax(const float* x, std::int64_t n) {
  if (calib_ == nullptr) return;
  float m = (*calib_)[cur_op_];
  for (std::int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  (*calib_)[cur_op_] = m;
}

void Engine::exec_op(const OpPlan& op) {
  SNNSKIP_SPAN_AGG("infer.op", op.name);
  const bool i8 = plan_->precision == Precision::Int8;
  switch (op.kind) {
    case OpKind::Conv:
      i8 ? exec_conv<std::int8_t>(op) : exec_conv<float>(op);
      break;
    case OpKind::DwConv:
      i8 ? exec_dwconv<std::int8_t>(op) : exec_dwconv<float>(op);
      break;
    case OpKind::Linear:
      i8 ? exec_linear<std::int8_t>(op) : exec_linear<float>(op);
      break;
    case OpKind::DscGather: exec_dsc_gather(op); break;
    case OpKind::AvgPool: exec_avgpool(op); break;
    case OpKind::GlobalAvgPool: exec_gap(op); break;
    case OpKind::Neuron:
    case OpKind::Relu: exec_neuron(op); break;
    case OpKind::Copy: exec_copy(op); break;
  }
}

bool Engine::packed_dispatch(const OpPlan& op) const {
  std::int64_t nnz = 0, elems = 0;
  for (const TermPlan& t : op.terms) {
    const std::size_t v = static_cast<std::size_t>(t.value);
    if (!t.spiking || pvalid_[v] == 0) return false;
    nnz += popcnt_[v];
    const ValuePlan& vp = plan_->values[v];
    elems += active_ * (vp.floats / vp.shape[0]);
  }
  return elems > 0 &&
         static_cast<double>(nnz) / static_cast<double>(elems) <
             static_cast<double>(opts_.threshold);
}

void Engine::assemble_image(const OpPlan& op, std::int64_t img, float* dst) {
  const std::int64_t hw = op.geom.in_h * op.geom.in_w;
  for (const TermPlan& t : op.terms) {
    if (t.sunk) continue;  // own geometry; added after the main compute
    const ValuePlan& sv = val(t.value);
    const std::int64_t src_img_f = sv.floats / sv.shape[0];
    const float* src = dense(t.value) + img * src_img_f;
    float* d = dst + t.offset * hw;
    if (t.add_join) {
      const std::int64_t n = t.channels * hw;
      for (std::int64_t i = 0; i < n; ++i) d[i] += src[i];
    } else if (!t.gather.empty()) {
      for (std::size_t k = 0; k < t.gather.size(); ++k) {
        std::memcpy(d + static_cast<std::int64_t>(k) * hw,
                    src + t.gather[k] * hw,
                    static_cast<std::size_t>(hw) * sizeof(float));
      }
    } else {
      std::memcpy(d, src,
                  static_cast<std::size_t>(t.channels * hw) * sizeof(float));
    }
  }
}

void Engine::sunk_into_assembled(const OpPlan& op, std::int64_t img,
                                 float* assembled, float* cols) {
  for (const TermPlan& t : op.terms) {
    if (!t.sunk) continue;
    const ValuePlan& sv = val(t.value);
    const float* src = dense(t.value) + img * (sv.floats / sv.shape[0]);
    const std::int64_t pp = t.pgeom.out_h() * t.pgeom.out_w();
    im2col(t.pgeom, src, cols);
    gemm(t.proj_c, pp, t.pgeom.in_c, 1.f, t.pw.data(), cols, 1.f,
         assembled + t.offset * pp);
    stats_.dense_macs += t.proj_c * t.pgeom.in_c * pp;
  }
}

namespace {

/// The plan's weight copy of type W and its accumulator type `Acc`:
/// `panel` is the packed event kernels' transposed ((c,ky,kx), o) panel
/// (DwConv: the (C, K, K) bank, read by both modes), `rows` the dense
/// GEMM's (O, CKK) / (O, I) rows, `sunk` a sunk term's composite panel.
template <typename W>
struct Weights;
template <>
struct Weights<float> {
  using Acc = float;
  static const float* panel(const OpPlan& op) { return op.wt.data(); }
  static const float* rows(const OpPlan& op) { return op.wd.data(); }
  static const float* sunk(const TermPlan& t) { return t.wt.data(); }
};
template <>
struct Weights<std::int8_t> {
  using Acc = std::int32_t;
  static const std::int8_t* panel(const OpPlan& op) { return op.wq8t.data(); }
  static const std::int8_t* rows(const OpPlan& op) { return op.wq8d.data(); }
  static const std::int8_t* sunk(const TermPlan& t) { return t.wq8.data(); }
};

/// The accumulator as floats for the shared epilogue: fp32 as is, int32
/// widened in place.
const float* widen(float* acc, std::int64_t /*n*/) { return acc; }
const float* widen(std::int32_t* acc, std::int64_t n) {
  float* f = reinterpret_cast<float*>(acc);
  convert_i32_to_f32(n, acc, f);
  return f;
}

/// Dense-dispatch operand: fp32 plans read the values as they are; int8
/// plans quantize them into `codes` with the op's input step.
const float* operand(const OpPlan& /*op*/, std::int64_t /*n*/,
                     const float* x, float* /*codes*/) {
  return x;
}
const std::int8_t* operand(const OpPlan& op, std::int64_t n, const float* x,
                           std::int8_t* codes) {
  quantize_int8(n, x, 1.f / op.in_scale, codes);
  return codes;
}

/// c(m, n) = a(m, k) * b(n, k)^T, c overwritten: gemm_nt, or int8 x int8
/// into int32.
void gemm_rows(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
               const float* b, float* c) {
  gemm_nt(m, n, k, 1.f, a, b, 0.f, c);
}
void gemm_rows(std::int64_t m, std::int64_t n, std::int64_t k,
               const std::int8_t* a, const std::int8_t* b, std::int32_t* c) {
  gemm_s8s32_nt(m, n, k, a, b, c);
}

/// One image's dense depthwise taps: DepthwiseConv2d's dense forward loop
/// (bias and BN live in the epilogue); int8 operands accumulate in int32.
template <typename W, typename Acc>
void depthwise_taps(const ConvGeometry& g, const W* x, const W* bank,
                    Acc* out) {
  const std::int64_t k = g.kernel;
  const std::int64_t h = g.in_h, wd = g.in_w;
  const std::int64_t ho = g.out_h(), wo = g.out_w();
  for (std::int64_t ch = 0; ch < g.in_c; ++ch) {
    const W* plane = x + ch * h * wd;
    const W* ker = bank + ch * k * k;
    Acc* optr = out + ch * ho * wo;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        Acc acc = 0;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ox * g.stride - g.pad + kx;
            if (ix < 0 || ix >= wd) continue;
            acc += static_cast<Acc>(ker[ky * k + kx]) *
                   static_cast<Acc>(plane[iy * wd + ix]);
          }
        }
        optr[oy * wo + ox] = acc;
      }
    }
  }
}

/// Float slots of the int8 codes of `n` dense operand values (none for
/// fp32, which reads its operand in place).
template <typename W>
std::int64_t code_floats(std::int64_t n) {
  return std::is_same_v<W, float> ? 0 : (n + 3) / 4;
}

/// Floats of the dense conv path's cols slot: the main patch matrix or,
/// if larger, a sunk projection's 1x1 patch matrix (op_scratch sizes the
/// slot the same way).
std::int64_t cols_floats(const OpPlan& op) {
  std::int64_t f = op.geom.col_rows() * op.geom.out_h() * op.geom.out_w();
  for (const TermPlan& t : op.terms) {
    if (!t.sunk) continue;
    f = std::max(f, t.pgeom.col_rows() * t.pgeom.out_h() * t.pgeom.out_w());
  }
  return f;
}

}  // namespace

void Engine::count_dispatch(const OpPlan& op, bool packed) {
  if (packed) {
    ++stats_.packed_dispatches;
    Telemetry::count("infer.packed_layers");
    Telemetry::count(ctr_packed_.c_str());
    return;
  }
  ++stats_.dense_dispatches;
  Telemetry::count("infer.dense_layers");
  Telemetry::count(ctr_dense_.c_str());
  stats_.dense_macs += op.macs * active_;
}

// Weight ops, one body per op for both precisions (W = float or int8).
// The packed mode accumulates binary events into a float or int32 panel
// with pure row-adds (exact in int32), and int8's per-channel epilogue
// scale (S[o] * bn_scale_t[o]) dequantizes in one multiply. The dense
// mode assembles the fp32 input (including sunk-projection
// rematerialization through the raw 1x1 weights); int8 then quantizes it
// with the op's compile-time step, runs the int8 GEMM into int32, widens
// in place and hands the epilogue ascale = in_scale (exactly 1.0 on fp32
// plans). When every input term is binary (in_scale == 1.0) the int8
// quantization is lossless and both modes are bitwise-equal.

template <typename W>
void Engine::exec_conv(const OpPlan& op) {
  using Acc = typename Weights<W>::Acc;
  const std::int64_t n = active_;
  const std::int64_t p = op.geom.out_h() * op.geom.out_w();
  const std::int64_t o_c = op.out_c;
  const std::int64_t in_img = op.geom.in_c * op.geom.in_h * op.geom.in_w;
  const std::int64_t ckk = op.geom.col_rows();

  if (packed_dispatch(op)) {
    count_dispatch(op, /*packed=*/true);
    // (P, O) transposed accumulator; an int32 panel has the float
    // scratch's element count.
    Acc* panel = reinterpret_cast<Acc*>(scratch_.data());
    for (std::int64_t img = 0; img < n; ++img) {
      std::memset(panel, 0, static_cast<std::size_t>(p * o_c) * sizeof(Acc));
      for (const TermPlan& t : op.terms) {
        const ValuePlan& sv = val(t.value);
        const std::int64_t src_c = sv.shape[1];
        const std::uint64_t* w =
            words(t.value) + img * (sv.words / sv.shape[0]);
        if (t.sunk) {
          // Sunk projection: composite kernel over the original spiking
          // source, same output grid, accumulated into the same panel.
          stats_.synops += spike_packed_conv2d_term(
              t.geom, src_c, w, nullptr, Weights<W>::sunk(t), o_c, panel);
        } else {
          stats_.synops += spike_packed_conv2d_term(
              op.geom, src_c, w, t.chrow.empty() ? nullptr : t.chrow.data(),
              Weights<W>::panel(op), o_c, panel);
        }
      }
      epilogue(op, img, widen(panel, p * o_c), /*so=*/1, /*sp=*/o_c);
    }
    return;
  }

  count_dispatch(op, /*packed=*/false);
  float* assembled = scratch_.data();
  float* cols = assembled + in_img;
  const std::int64_t cols_f = cols_floats(op);
  W* codes = reinterpret_cast<W*>(cols + cols_f);
  Acc* outr = reinterpret_cast<Acc*>(cols + cols_f + code_floats<W>(ckk * p));
  for (std::int64_t img = 0; img < n; ++img) {
    assemble_image(op, img, assembled);
    sunk_into_assembled(op, img, assembled, cols);
    // Post-assembly, post-projection: exactly what the int8 dense path
    // will quantize — the range the calibration sweep needs.
    record_amax(assembled, in_img);
    if constexpr (std::is_same_v<W, float>) {
      if (p >= 16) {
        // The exact im2col + GEMM the training graph runs.
        im2col(op.geom, assembled, cols);
        gemm(o_c, p, ckk, 1.f, op.wd.data(), cols, 0.f, outr);
        epilogue(op, img, outr, /*so=*/p, /*sp=*/1);
        continue;
      }
    }
    // Int8, and fp32 few-pixel outputs (deep stages, where gemm's
    // 16-column microkernel degrades to scalar edge loops): weight rows x
    // contiguous patch rows. Per-element summation stays in ascending-k
    // order either way, so fp32 dense dispatch remains bitwise equal to
    // the training eval forward.
    im2row(op.geom, assembled, cols);
    gemm_rows(o_c, p, ckk, Weights<W>::rows(op),
              operand(op, ckk * p, cols, codes), outr);
    epilogue(op, img, widen(outr, o_c * p), /*so=*/p, /*sp=*/1, op.in_scale);
  }
}

template <typename W>
void Engine::exec_dwconv(const OpPlan& op) {
  using Acc = typename Weights<W>::Acc;
  const std::int64_t n = active_;
  const std::int64_t p = op.geom.out_h() * op.geom.out_w();
  const std::int64_t c = op.geom.in_c;
  const std::int64_t in_img = c * op.geom.in_h * op.geom.in_w;
  const W* bank = Weights<W>::panel(op);  // (C, K, K)

  if (packed_dispatch(op)) {
    count_dispatch(op, /*packed=*/true);
    Acc* acc = reinterpret_cast<Acc*>(scratch_.data());  // (C, Ho, Wo)
    for (std::int64_t img = 0; img < n; ++img) {
      std::memset(acc, 0, static_cast<std::size_t>(c * p) * sizeof(Acc));
      for (const TermPlan& t : op.terms) {
        const ValuePlan& sv = val(t.value);
        const std::uint64_t* wsrc =
            words(t.value) + img * (sv.words / sv.shape[0]);
        stats_.synops += spike_packed_depthwise_term(
            op.geom, sv.shape[1], wsrc,
            t.chrow.empty() ? nullptr : t.chrow.data(), bank, acc);
      }
      epilogue(op, img, widen(acc, c * p), /*so=*/p, /*sp=*/1);
    }
    return;
  }

  count_dispatch(op, /*packed=*/false);
  float* assembled = scratch_.data();
  W* codes = reinterpret_cast<W*>(assembled + in_img);
  Acc* outr =
      reinterpret_cast<Acc*>(assembled + in_img + code_floats<W>(in_img));
  for (std::int64_t img = 0; img < n; ++img) {
    assemble_image(op, img, assembled);
    record_amax(assembled, in_img);
    depthwise_taps(op.geom, operand(op, in_img, assembled, codes), bank,
                   outr);
    epilogue(op, img, widen(outr, c * p), /*so=*/p, /*sp=*/1, op.in_scale);
  }
}

template <typename W>
void Engine::exec_linear(const OpPlan& op) {
  using Acc = typename Weights<W>::Acc;
  const TermPlan& t = op.terms.front();
  const std::int64_t n = active_;
  const std::int64_t in_f = t.channels;
  const std::int64_t o_f = op.out_c;
  count_dispatch(op, /*packed=*/false);
  record_amax(dense(t.value), n * in_f);
  W* codes = reinterpret_cast<W*>(scratch_.data());
  Acc* outr =
      reinterpret_cast<Acc*>(scratch_.data() + code_floats<W>(n * in_f));
  // out(N, O) = x(N, I) * W(O, I)^T — Linear::forward's dense GEMM; the
  // bias moves to the epilogue.
  gemm_rows(n, o_f, in_f, operand(op, n * in_f, dense(t.value), codes),
            Weights<W>::rows(op), outr);
  const float* out = widen(outr, n * o_f);
  for (std::int64_t img = 0; img < n; ++img) {
    epilogue(op, img, out + img * o_f, /*so=*/1, /*sp=*/1, op.in_scale);
  }
}

void Engine::exec_dsc_gather(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const ValuePlan& sv = val(t.value);
  const ValuePlan& ov = val(op.out);
  const std::int64_t h = sv.shape[2], w = sv.shape[3];
  const std::int64_t len = t.channels;
  const std::int64_t ho = ov.shape[2], wo = ov.shape[3];
  const std::int64_t src_img_f = sv.floats / sv.shape[0];
  float* g = scratch_.data();  // (len, H, W) gathered image
  for (std::int64_t img = 0; img < active_; ++img) {
    const float* src = dense(t.value) + img * src_img_f;
    for (std::size_t kk = 0; kk < t.gather.size(); ++kk) {
      std::memcpy(g + static_cast<std::int64_t>(kk) * h * w,
                  src + t.gather[kk] * h * w,
                  static_cast<std::size_t>(h * w) * sizeof(float));
    }
    // AvgPool2d::forward's partial-window averaging (ceil-mode output
    // size was fixed at compile time).
    float* optr = dense(op.out) + img * len * ho * wo;
    for (std::int64_t ch = 0; ch < len; ++ch) {
      const float* plane = g + ch * h * w;
      float* od = optr + ch * ho * wo;
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        const std::int64_t y_end =
            std::min(h, oy * op.pool_stride + op.pool_kernel);
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          const std::int64_t x_end =
              std::min(w, ox * op.pool_stride + op.pool_kernel);
          float acc = 0.f;
          std::int64_t count = 0;
          for (std::int64_t y = oy * op.pool_stride; y < y_end; ++y) {
            for (std::int64_t xx = ox * op.pool_stride; xx < x_end; ++xx) {
              acc += plane[y * w + xx];
              ++count;
            }
          }
          od[oy * wo + ox] = count ? acc / static_cast<float>(count) : 0.f;
        }
      }
    }
  }
}

void Engine::exec_avgpool(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const ValuePlan& sv = val(t.value);
  const ValuePlan& ov = val(op.out);
  const std::int64_t n = active_, c = sv.shape[1];
  const std::int64_t h = sv.shape[2], w = sv.shape[3];
  const std::int64_t ho = ov.shape[2], wo = ov.shape[3];
  const float* src = dense(t.value);
  float* dst = dense(op.out);
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float* plane = src + i * h * w;
    float* optr = dst + i * ho * wo;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      const std::int64_t y_end =
          std::min(h, oy * op.pool_stride + op.pool_kernel);
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        const std::int64_t x_end =
            std::min(w, ox * op.pool_stride + op.pool_kernel);
        float acc = 0.f;
        std::int64_t count = 0;
        for (std::int64_t y = oy * op.pool_stride; y < y_end; ++y) {
          for (std::int64_t xx = ox * op.pool_stride; xx < x_end; ++xx) {
            acc += plane[y * w + xx];
            ++count;
          }
        }
        optr[oy * wo + ox] = count ? acc / static_cast<float>(count) : 0.f;
      }
    }
  }
}

void Engine::exec_gap(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const ValuePlan& sv = val(t.value);
  const std::int64_t n = active_, c = sv.shape[1];
  const std::int64_t plane = sv.shape[2] * sv.shape[3];
  const float* src = dense(t.value);
  float* dst = dense(op.out);
  const float inv = 1.f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n * c; ++i) {
    const float* pl = src + i * plane;
    float acc = 0.f;
    for (std::int64_t j = 0; j < plane; ++j) acc += pl[j];
    dst[i] = acc * inv;
  }
}

void Engine::exec_neuron(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const ValuePlan& sv = val(t.value);
  const std::int64_t img_f = sv.floats / sv.shape[0];
  for (std::int64_t img = 0; img < active_; ++img) {
    epilogue(op, img, dense(t.value) + img * img_f, /*so=*/1, /*sp=*/1);
  }
}

void Engine::exec_copy(const OpPlan& op) {
  const TermPlan& t = op.terms.front();
  const ValuePlan& sv = val(t.value);
  const std::int64_t n = sv.shape[0];
  std::memcpy(dense(op.out), dense(t.value),
              static_cast<std::size_t>(active_ * (sv.floats / n)) *
                  sizeof(float));
  const ValuePlan& ov = val(op.out);
  if (ov.spiking && sv.spiking) {
    std::memcpy(words(op.out), words(t.value),
                static_cast<std::size_t>(active_ * (sv.words / n)) *
                    sizeof(std::uint64_t));
    pvalid_[static_cast<std::size_t>(op.out)] =
        pvalid_[static_cast<std::size_t>(t.value)];
    popcnt_[static_cast<std::size_t>(op.out)] =
        popcnt_[static_cast<std::size_t>(t.value)];
  }
}

void Engine::epilogue(const OpPlan& op, std::int64_t img, const float* acc,
                      std::int64_t so, std::int64_t sp, float ascale) {
  const ValuePlan& ov = val(op.out);
  const std::int64_t n = ov.shape[0];
  const std::int64_t img_f = ov.floats / n;
  const std::int64_t o_c = op.out_c;
  const std::int64_t p = img_f / o_c;
  float* dst = dense(op.out) + img * img_f;
  const std::size_t bi = static_cast<std::size_t>(op.copy_index(t_));
  const float* bias = op.bias[bi].data();
  const float* sc = op.scale.empty() ? nullptr : op.scale[bi].data();

  std::uint64_t* wbits = nullptr;
  if (ov.spiking) {
    const std::int64_t img_w = ov.words / n;
    wbits = words(op.out) + img * img_w;
    std::memset(wbits, 0,
                static_cast<std::size_t>(img_w) * sizeof(std::uint64_t));
  }

  if (op.epi == Epi::Lif) {
    float* m = sarena_.data() + op.state_off + img * img_f;
    float* rc = op.refrac_off >= 0
                    ? sarena_.data() + op.refrac_off + img * img_f
                    : nullptr;
    std::int64_t spk = 0;
    if (sp == 1 && rc == nullptr) {
      // Contiguous accumulator rows and no refractory gate: the fused
      // SIMD-dispatched row (bit-identical to the loop below at the
      // Scalar/Avx2 levels) handles integrate + threshold + soft reset +
      // spike-bit packing in one pass.
      for (std::int64_t o = 0; o < o_c; ++o) {
        spk += lif_epilogue_row(p, acc + o * so, sc != nullptr ? 1 : 0,
                                sc != nullptr ? ascale * sc[o] : 0.f, bias[o],
                                op.beta, op.theta, m + o * p, dst + o * p,
                                wbits, /*bit0=*/o * p);
      }
    } else {
      for (std::int64_t o = 0; o < o_c; ++o) {
        const float* ab = acc + o * so;
        const float s = sc != nullptr ? ascale * sc[o] : 1.f;
        const float b = bias[o];
        for (std::int64_t j = 0; j < p; ++j) {
          const std::int64_t idx = o * p + j;
          const float in = s * ab[j * sp] + b;
          // Lif::forward's exact update: leaky integrate, refractory gate,
          // threshold compare, soft reset.
          const float vt = op.beta * m[idx] + in;
          const float dist = vt - op.theta;
          bool live = true;
          if (rc != nullptr && rc[idx] > 0.f) {
            live = false;
            rc[idx] -= 1.f;
          }
          if (live && dist >= 0.f) {
            dst[idx] = 1.f;
            m[idx] = vt - op.theta;
            if (rc != nullptr) rc[idx] = static_cast<float>(op.refractory);
            wbits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
            ++spk;
          } else {
            dst[idx] = 0.f;
            m[idx] = vt;
          }
        }
      }
    }
    if (img == 0) popcnt_[static_cast<std::size_t>(op.out)] = 0;
    popcnt_[static_cast<std::size_t>(op.out)] += spk;
    pvalid_[static_cast<std::size_t>(op.out)] = 1;
    stats_.spikes += spk;
    return;
  }

  if (sp == 1) {
    for (std::int64_t o = 0; o < o_c; ++o) {
      affine_epilogue_row(p, acc + o * so, sc != nullptr ? 1 : 0,
                          sc != nullptr ? ascale * sc[o] : 0.f, bias[o],
                          op.epi == Epi::Relu ? 1 : 0, dst + o * p);
    }
    return;
  }
  for (std::int64_t o = 0; o < o_c; ++o) {
    const float* ab = acc + o * so;
    const float s = sc != nullptr ? ascale * sc[o] : 1.f;
    const float b = bias[o];
    for (std::int64_t j = 0; j < p; ++j) {
      const float in = s * ab[j * sp] + b;
      dst[o * p + j] = op.epi == Epi::Relu ? (in > 0.f ? in : 0.f) : in;
    }
  }
}

}  // namespace snnskip::infer
