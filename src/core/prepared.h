// PreparedModel: a Model transformed for execution under an ExecConfig.
//
// For QUInt8 storage this performs what the paper assumes exists up front
// ("ulayer assumes that the 8-bit linear quantization is already applied to
// the given NN", Section 6): per-layer weight quantization, activation-range
// calibration over a calibration set, and int32 bias quantization. For
// F16/F32 storage it converts weights to the storage dtype.
#pragma once

#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "models/model.h"
#include "quant/half.h"
#include "quant/quantize.h"

namespace ulayer {

class PreparedModel {
 public:
  // Model must outlive the PreparedModel. Weights must be materialized when
  // functional execution or calibration is intended.
  PreparedModel(const Model& model, const ExecConfig& config);

  // Thread-safety contract: a PreparedModel is immutable once prepared. The
  // constructor and Calibrate() are the only mutators, and both must finish
  // before the instance is shared. After that, any number of executors may
  // const-share one instance concurrently — every accessor below returns
  // references/pointers into caches written at prepare time only (verified by
  // the TSan concurrent-readers test in tests/prepared_test.cc). Copying and
  // moving are disabled so a shared instance cannot silently fork and
  // invalidate the raw cache pointers long-lived callers (the serving-layer
  // model cache, executor pools) hold into it.
  PreparedModel(const PreparedModel&) = delete;
  PreparedModel& operator=(const PreparedModel&) = delete;
  PreparedModel(PreparedModel&&) = delete;
  PreparedModel& operator=(PreparedModel&&) = delete;

  const Model& model() const { return *model_; }
  const Graph& graph() const { return model_->graph; }
  const ExecConfig& config() const { return config_; }

  // Runs the F32 reference over `inputs`, records per-node activation
  // ranges, derives QuantParams, and quantizes biases. Required before
  // functional QUInt8 execution. One input = the paper's naive
  // post-training quantization; many inputs = the calibrated ("fake quant
  // retrained") setting of Section 4.3.
  //
  // Throws Error(kInvalidArgument) before changing any state when the
  // model's weights are not materialized, `inputs` is empty, or any input is
  // not an F32 tensor shaped like the graph input. A later throw
  // (Error(kQuantization) on a degenerate bias scale) leaves calibrated()
  // false.
  void Calibrate(const std::vector<Tensor>& inputs);
  bool calibrated() const { return calibrated_; }

  // Activation quantization parameters of node `id` (QUInt8 storage only).
  const QuantParams& ActivationParams(int id) const { return act_qp_[static_cast<size_t>(id)]; }
  // All per-node activation parameters (indexed by node id), for the
  // quantization-sanity verifier pass.
  const std::vector<QuantParams>& activation_params() const { return act_qp_; }

  // Weights in storage dtype. QUInt8 filters carry their QuantParams.
  const Tensor& Filters(int id) const { return weights_.at(id).filters; }
  // Per-output-channel filter params (config().per_channel_weights only).
  const PerChannelParams& FilterChannelParams(int id) const {
    return weights_.at(id).per_channel;
  }
  // Bias variants: int32 for the CPU QUInt8 path, F32 for the GPU on-the-fly
  // F16 path, storage-dtype for F16/F32 modes.
  const Tensor& BiasI32(int id) const { return weights_.at(id).bias_i32; }
  const Tensor& BiasF32(int id) const { return model_->weights.at(id).bias; }
  const Tensor& Bias(int id) const { return weights_.at(id).bias; }

  // Allocates the activation tensor for node `id` with the right dtype and
  // quantization parameters (softmax outputs are always F32).
  Tensor MakeActivation(int id) const;
  // Same dtype/quant-params setup, but as a non-owning view over
  // caller-managed storage (the executor's planned activation pool).
  Tensor MakeActivationView(int id, uint8_t* buffer) const;

  // Storage dtype of node `id`'s activation (softmax outputs are always F32).
  DType ActivationDType(int id) const;

  // Converts a user-supplied F32 input into the network storage dtype. Every
  // functional path (executor, analyzer, perfbench, src/net) enters here.
  // Throws Error(kInvalidArgument) when the weights are not materialized,
  // the input is not F32 or not shaped like the graph input (node 0), or
  // QUInt8 storage is not calibrated yet. The checks allocate nothing.
  Tensor PrepareInput(const Tensor& f32_input) const;

  // --- Prepare-time kernel caches (DESIGN.md Section 9) ---------------------
  // All return nullptr when the cache is absent (non-QUInt8 storage,
  // pre-Calibrate, or degenerate quant params); kernels then fall back to
  // per-call computation. Pointers index absolute output channels.
  const Half* FiltersF16Ptr(int id) const;
  const Half* BiasF16Ptr(int id) const;
  const int32_t* FilterRowSumPtr(int id) const;
  const RequantScale* RequantPtr(int id) const;
  const RequantScale* PerChannelRequantPtr(int id) const;

  // Packed filter panels (kernels/pack.h) in each dtype the conv kernels
  // consume; built for dense conv layers only (kConv). FC layers are GEMV
  // (n = 1) where panels buy nothing and the classifier matrices dominate
  // model size, and depthwise kernels do not run through the GEMM.
  const uint8_t* PackedFiltersQU8Ptr(int id) const;
  const float* PackedFiltersF32Ptr(int id) const;
  const Half* PackedFiltersF16Ptr(int id) const;

 private:
  struct PreparedWeights {
    Tensor filters;   // storage dtype
    Tensor bias;      // storage dtype (F32/F16 modes)
    Tensor bias_i32;  // QUInt8 mode, filled by Calibrate().
    PerChannelParams per_channel;  // QUInt8 + per_channel_weights mode.

    // Prepare-time caches (QUInt8 storage only, except the packed panels).
    std::vector<Half> filters_f16;   // Dequantized filters, F16 (GPU path).
    std::vector<Half> bias_f16;      // F32 bias converted to F16 (GPU path).
    std::vector<int32_t> filter_rowsum;  // Raw uint8 row sums per out channel.
    // Packed panels of the filter matrix [OC, IC*KH*KW] (dense conv only;
    // the dtype matching `filters` plus the F16 pack of filters_f16).
    std::vector<uint8_t> filters_packed_qu8;
    std::vector<float> filters_packed_f32;
    std::vector<Half> filters_packed_f16;
    RequantScale requant;            // Per-tensor multiplier (Calibrate).
    bool has_requant = false;
    std::vector<RequantScale> requant_per_channel;  // Per-channel multipliers.
  };

  // Fills the calibration-independent caches (row sums, F16 operands) of one
  // quantized layer. Called from the constructor.
  void BuildWeightCaches(const Node& n, PreparedWeights& pw) const;

  const Model* model_;
  ExecConfig config_;
  std::unordered_map<int, PreparedWeights> weights_;
  std::vector<QuantParams> act_qp_;
  bool calibrated_ = false;
};

// Compile-time pin of the const-share contract above: executors and serving
// caches share one prepared instance by reference, so nothing may copy it.
static_assert(!std::is_copy_constructible_v<PreparedModel> &&
                  !std::is_copy_assignable_v<PreparedModel>,
              "PreparedModel is const-shared across executors; copying would fork its caches");

}  // namespace ulayer
