#pragma once
// Network -> Plan compiler for the inference engine (ISSUE 6).
//
// compile() freezes a Network (stages + per-block adjacency wiring) into a
// flat infer::Plan at a FIXED input shape. Three passes, all ahead of
// execution:
//
//   1. Weight lowering — each conv/linear keeps ONE raw weight copy
//      (re-laid out for the event kernels) and each BatchNormTT becomes
//      per-timestep epilogue scale/shift vectors, computed with the exact
//      expressions of BatchNormTT's eval path so dense dispatch replays the
//      training eval forward bit-for-bit (engine steps past t_max reuse
//      the last vectors, mirroring BNTT's wrap). 1x1 ASC projections into
//      a conv are sunk into one unscaled composite kernel over their
//      spiking source (TermPlan::sunk).
//   2. LIF/PLIF fusion — threshold-compare, soft reset, and refractory
//      gating become the op's epilogue, executed in the same pass that
//      writes the output's packed mask and dense mirror.
//   3. Buffer planning — shape inference sizes every intermediate value;
//      liveness intervals drive a first-fit interval allocation over one
//      float arena and one packed-word arena (Workspace-style high-water
//      accounting, but computed statically), and per-op scratch needs are
//      folded into a single shared scratch high-water. execute() then
//      performs zero heap allocations.
//
// Recurrent (one-step-delayed) adjacency edges are a training-graph
// extension; compile() rejects them with an explanatory error.

#include "graph/network.h"
#include "infer/plan.h"

namespace snnskip::infer {

struct QuantProfile;  // infer/quant.h — calibrated activation ranges

struct CompileOptions {
  /// Weight format. Int8 quantizes the raw weights once
  /// (per-output-channel symmetric) and multiplies the dequant step into
  /// the epilogue's per-timestep BN scale.
  Precision precision = Precision::Fp32;
  /// Optional calibrated activation ranges for int8 plans. Ops whose
  /// inputs are all binary spikes quantize exactly (step 1.0) and ignore
  /// this; analog-input ops (post-GAP linear, DSC-pooled convs, sunk
  /// rematerializations) use the profiled absmax, falling back to a
  /// conservative amax of 1.0 when null.
  const QuantProfile* quant = nullptr;
};

/// Freeze `net` at `input_shape` (N, C, H, W). Throws std::invalid_argument
/// on unsupported stages or recurrent adjacency edges.
Plan compile_plan(Network& net, const Shape& input_shape,
                  const CompileOptions& opts = {});

/// Shared-ownership convenience wrapper (multiple Engines, one Plan).
PlanPtr compile(Network& net, const Shape& input_shape,
                const CompileOptions& opts = {});

}  // namespace snnskip::infer
