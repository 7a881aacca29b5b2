#pragma once
// Interpreter for frozen execution plans (ISSUE 6).
//
// Engine executes an infer::Plan one timestep at a time. All buffers —
// the dense-mirror float arena, the packed-word arena, persistent neuron
// state, and a shared per-op scratch block — are allocated once in the
// constructor from the plan's precomputed high-water sizes, so step()
// performs zero heap allocations on the default (packed) path
// (tests/infer_test.cpp pins this with Workspace heap-alloc counters).
//
// Per conv/depthwise op, dispatch picks one of two modes each step from
// the measured input density (exact, via the packed masks' popcounts):
//
//   Packed  bit-packed event kernels (tensor/spike_packed.h). Requires
//           every input term to carry a valid packed mask and density <
//           threshold. Skip joins run directly on the source masks — ADD
//           joins accumulate each term into the same output panel (conv
//           is linear), concat joins select weight rows through the
//           term's chrow map — so no assembled input is ever materialized.
//   Dense   assembled input + im2col + GEMM, for dense inputs (analog
//           values, projection outputs) or high firing rates.
//
// Both modes feed the same fused epilogue: BN scale/shift, bias, and the
// LIF/PLIF threshold-compare / soft-reset / refractory update, which
// writes the output's dense mirror, its packed mask, and the exact spike
// popcount in one pass.
//
// Precision is carried by the plan's weights, not by forked ops: each
// weight op (conv, depthwise, linear) is one body templated on the weight
// type. Int8 plans run it with int8 weights and an int32 accumulator,
// widened to float in place before the shared epilogue, and their dense
// mode quantizes the assembled input with the op's calibrated step.
//
// Runtime configuration (ISSUE 7): dispatch switches are PER ENGINE.
// Each Engine snapshots an ExecOptions at construction and never consults
// process-global state afterwards, so concurrent engines with different
// options (multi-tenant serving: one model latency-tuned packed, another
// forced dense) cannot perturb each other. The default threshold comes
// from the kernel config (tensor/kernel_config.h), where
// SNNSKIP_INFER_THRESHOLD=<frac> (0.25, valid range [0, 1]) beats the
// tuning profile.

#include <cstdint>
#include <string>
#include <vector>

#include "infer/plan.h"
#include "metrics/energy.h"
#include "tensor/tensor.h"

namespace snnskip::infer {

/// Per-engine dispatch configuration. `ExecOptions{}` gives the compiled-in
/// default; `ExecOptions::defaults()` gives the kernel-config default,
/// which is what `Engine(plan)` uses.
struct ExecOptions {
  /// Input density below which the packed event path is taken, in [0, 1]
  /// (0 forces dense dispatch everywhere).
  float threshold = 0.25f;

  static ExecOptions defaults();
};

/// Per-engine execution statistics (reset with Engine::reset_stats).
struct ExecStats {
  std::int64_t steps = 0;
  std::int64_t packed_dispatches = 0;  ///< ops run on the packed kernels
  /// Always 0: the engine has no CSR mode any more. Kept only because
  /// perfbench/src/probes.cpp still sums it into its dispatch total.
  std::int64_t csr_dispatches = 0;
  std::int64_t dense_dispatches = 0;   ///< ops run dense (GEMM / loops)
  std::int64_t spikes = 0;   ///< exact spike count (packed popcounts)
  std::int64_t synops = 0;   ///< exact accumulates on the packed path
  std::int64_t dense_macs = 0;  ///< MACs charged to dense-dispatched ops

  /// Energy proxy: ac_pj per event-path accumulate, mac_pj per dense MAC
  /// (same 45 nm constants as metrics/energy.h).
  double energy_pj(const EnergyModel& m = {}) const {
    return m.ac_pj * static_cast<double>(synops) +
           m.mac_pj * static_cast<double>(dense_macs);
  }
};

class Engine {
 public:
  /// Preallocates every arena from the plan's high-water sizes and
  /// snapshots `opts` — later changes to the process-wide defaults never
  /// reach a constructed engine.
  Engine(PlanPtr plan, const ExecOptions& opts);
  /// Convenience: construct with the process-wide default options.
  explicit Engine(PlanPtr plan);

  const Plan& plan() const { return *plan_; }
  const ExecOptions& options() const { return opts_; }

  /// Zero all persistent neuron state and rewind the timestep counter
  /// (sequence boundary — the analogue of Network::reset_state()).
  void reset();

  /// Run one timestep over the whole compiled batch. `x` must match the
  /// plan's frozen input shape; `out` is resized only if its shape
  /// mismatches the plan's output shape, so a correctly-sized tensor makes
  /// this call allocation-free on the packed path.
  void step(const Tensor& x, Tensor* out);

  /// Run one timestep over images [0, active) only; throws
  /// std::invalid_argument unless 1 <= active <= batch. `x` keeps the
  /// plan's input shape, but only its first `active` images are read, and
  /// only rows [0, active) of `out` are written (later rows are
  /// unspecified). Ops are per-image independent, so every live image's
  /// output, spikes, synops and dispatch choice (density is measured over
  /// the live images only) equal a batch-`active` plan's. Images >= active
  /// do not advance: their neuron state stays as it was, so an image that
  /// leaves the prefix must not rejoin it before reset().
  void step(const Tensor& x, Tensor* out, std::int64_t active);

  /// Convenience wrapper that allocates the output tensor.
  Tensor step(const Tensor& x);

  const ExecStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ExecStats{}; }

  /// Calibration sink (infer/quant.h): when set on an FP32 engine,
  /// records each weight op's per-input absmax into `amax` (one slot per
  /// plan op, max-merged across images/steps) every time the op runs a
  /// dense dispatch — which is every step when the engine is built with
  /// {threshold = 0}. The vector must outlive the engine
  /// or be cleared with nullptr; it must be sized to plan().ops.size().
  void set_calibration_sink(std::vector<float>* amax) { calib_ = amax; }

 private:
  float* dense(int v);
  std::uint64_t* words(int v);
  const ValuePlan& val(int v) const {
    return plan_->values[static_cast<std::size_t>(v)];
  }

  void write_input(const Tensor& x);
  void exec_op(const OpPlan& op);
  // Weight ops, one body each for both plan precisions: W is the weight
  // type (float, or std::int8_t for int8 plans, whose packed panels and
  // dense GEMMs accumulate in int32 and dequantize in the epilogue).
  template <typename W>
  void exec_conv(const OpPlan& op);
  template <typename W>
  void exec_dwconv(const OpPlan& op);
  template <typename W>
  void exec_linear(const OpPlan& op);
  void exec_dsc_gather(const OpPlan& op);
  void exec_avgpool(const OpPlan& op);
  void exec_gap(const OpPlan& op);
  void exec_neuron(const OpPlan& op);
  void exec_copy(const OpPlan& op);

  /// True when every input term carries a valid packed mask and their
  /// measured density is below the threshold: run the event kernels.
  bool packed_dispatch(const OpPlan& op) const;

  /// Dispatch stats and telemetry for one weight op (dense dispatch also
  /// charges the op's MACs for the live images).
  void count_dispatch(const OpPlan& op, bool packed);

  /// Dense-assemble one image's op input (main copy, ADD-join axpys,
  /// concat gathers — the training graph's assemble_input, bitwise).
  /// Sunk projection terms are excluded: dense dispatch re-materializes
  /// them through the raw 1x1 projection (see sunk_into_assembled).
  void assemble_image(const OpPlan& op, std::int64_t img, float* dst);

  /// Dense dispatch undoes ASC sinking: run each sunk term's raw 1x1
  /// projection over its source and ADD it into the assembled input
  /// (the composite kernel's zero rows are free for event kernels but
  /// real GEMM work). `cols` is the patch-matrix scratch.
  void sunk_into_assembled(const OpPlan& op, std::int64_t img,
                           float* assembled, float* cols);

  /// Fused epilogue: scale/bias (+LIF or ReLU) over the accumulator of
  /// one image, writing the output's dense mirror, packed mask bits, and
  /// popcount. `so`/`sp` are the accumulator's channel/spatial strides
  /// (packed panels are (P, O): so=1, sp=O; dense outputs are (O, P):
  /// so=P, sp=1). `ascale` is the dense path's input quantization step
  /// (OpPlan::in_scale), folded into the per-channel scale (eff[o] =
  /// ascale * sc[o]); it is 1.0 on the packed path and on fp32 plans
  /// (exact — multiplying a float by 1.0 is the identity).
  void epilogue(const OpPlan& op, std::int64_t img, const float* acc,
                std::int64_t so, std::int64_t sp, float ascale = 1.f);

  /// Calibration: max-merge |x| over `n` floats into the current op's
  /// sink slot (no-op without a sink).
  void record_amax(const float* x, std::int64_t n);

  PlanPtr plan_;
  ExecOptions opts_;                   // snapshot; engine-local dispatch
  // Telemetry counter keys, prefixed with the plan's model name so
  // concurrent engines serving different models never bleed into one
  // aggregate (the unprefixed infer.* keys keep the process-wide totals).
  std::string ctr_steps_, ctr_spikes_, ctr_synops_;
  std::string ctr_packed_, ctr_dense_;
  std::vector<float> farena_;          // shared value dense mirrors
  std::vector<std::uint64_t> warena_;  // shared packed masks
  std::vector<float> sarena_;          // persistent neuron state
  std::vector<float> scratch_;         // per-op scratch high-water block
  std::vector<std::int64_t> popcnt_;   // per value: exact nonzero count
  std::vector<char> pvalid_;           // per value: packed mask is valid
  std::int64_t t_ = 0;                 // timestep (BNTT vector selection)
  std::int64_t active_ = 0;            // live images of the current step
  ExecStats stats_;
  std::vector<float>* calib_ = nullptr;  // per-op input absmax sink
  std::size_t cur_op_ = 0;               // op index for the sink slot

};

}  // namespace snnskip::infer
