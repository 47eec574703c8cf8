#include "core/prepared.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "core/reference.h"
#include "kernels/pack.h"
#include "parallel/thread_pool.h"

namespace ulayer {
namespace {

QuantParams TensorMinMaxParams(const Tensor& f32) {
  MinMaxObserver obs;
  obs.Observe(f32);
  return obs.Params();
}

// The QU8 pooling kernels propagate their input's quantization parameters
// onto the output tensor at run time (pooling is value-preserving), so the
// scale a consumer actually observes on act[id] is the one upstream of any
// pool chain — not act_qp_[id]. Cached requantization multipliers must use
// the same effective scale the kernels will see.
int EffectiveQuantSource(const Graph& g, int id) {
  const Node* n = &g.node(id);
  while (n->desc.kind == LayerKind::kPool || n->desc.kind == LayerKind::kGlobalAvgPool) {
    n = &g.node(n->inputs[0]);
  }
  return n->id;
}

// Panel packing applies to dense convolutions only. FC layers are GEMV
// (spatial = 1: the GEMV micro-kernels stream row-major filters, so panels
// buy no reuse) and their classifier matrices dominate parameter count —
// doubling them in memory for nothing is a bad trade. Depthwise convs never
// reach the GEMM.
bool ShouldPackFilters(const Node& n) { return n.desc.kind == LayerKind::kConv; }

template <typename T>
void PackFilterTensor(const T* w, const Shape& fs, std::vector<T>& out) {
  const int64_t k = fs.c * fs.h * fs.w;
  out.resize(static_cast<size_t>(PackedPanelElems(fs.n, k)));
  PackRowPanels(w, fs.n, k, out.data());
}

// Input checks behind PrepareInput and Calibrate: they throw
// Error(kInvalidArgument), with `where` prefixing the message, and allocate
// nothing unless they throw.
void RequireWeights(const Model& model, const char* where) {
  if (!model.has_weights()) {
    throw Error(ErrorCode::kInvalidArgument,
                std::string(where) + ": model weights are not materialized");
  }
}

// The functional input must be F32 and shaped like the graph input, which
// is node 0 by construction.
void CheckInput(const Graph& g, const Tensor& input, const char* where) {
  const Shape& want = g.node(0).out_shape;
  if (input.dtype() != DType::kF32) {
    throw Error(ErrorCode::kInvalidArgument, std::string(where) + ": input dtype is " +
                                                 std::string(DTypeName(input.dtype())) +
                                                 ", want f32");
  }
  if (input.shape() != want) {
    throw Error(ErrorCode::kInvalidArgument, std::string(where) + ": input shape " +
                                                 input.shape().ToString() +
                                                 " differs from the graph input " +
                                                 want.ToString());
  }
}

}  // namespace

PreparedModel::PreparedModel(const Model& model, const ExecConfig& config)
    : model_(&model), config_(config), act_qp_(static_cast<size_t>(model.graph.size())) {
  if (!model.has_weights()) {
    return;  // Simulate-only use: no weight conversion needed.
  }
  for (const Node& n : model.graph.nodes()) {
    if (!IsParameterized(n.desc.kind)) {
      continue;
    }
    const LayerWeights& w = model.weights.at(n.id);
    PreparedWeights pw;
    switch (config.storage) {
      case DType::kF32:
        pw.filters = w.filters;
        pw.bias = w.bias;
        if (ShouldPackFilters(n)) {
          PackFilterTensor(pw.filters.Data<float>(), pw.filters.shape(),
                           pw.filters_packed_f32);
        }
        break;
      case DType::kF16:
        pw.filters = ToF16Tensor(w.filters);
        pw.bias = ToF16Tensor(w.bias);
        if (ShouldPackFilters(n)) {
          PackFilterTensor(pw.filters.Data<Half>(), pw.filters.shape(),
                           pw.filters_packed_f16);
        }
        break;
      case DType::kQUInt8:
        if (config.per_channel_weights && n.desc.kind != LayerKind::kDepthwiseConv) {
          pw.filters = QuantizeFiltersPerChannel(w.filters, pw.per_channel);
        } else {
          pw.filters = QuantizeTensor(w.filters, TensorMinMaxParams(w.filters));
        }
        // bias_i32 needs the input activation scale; filled by Calibrate().
        BuildWeightCaches(n, pw);
        break;
      case DType::kInt32:
        assert(false && "kInt32 is not a storage dtype");
        break;
    }
    weights_.emplace(n.id, std::move(pw));
  }
}

void PreparedModel::BuildWeightCaches(const Node& n, PreparedWeights& pw) const {
  const Tensor& qf = pw.filters;
  const Shape& fs = qf.shape();
  const uint8_t* w = qf.Data<uint8_t>();
  // Raw uint8 filter row sums, one per output channel: the precomputed half
  // of the GEMM zero-point hoist (see GemmQU8). Depthwise kernels do not use
  // row sums (their inner product is per-channel and tiny).
  if (n.desc.kind != LayerKind::kDepthwiseConv) {
    const int64_t k = fs.c * fs.h * fs.w;
    pw.filter_rowsum.resize(static_cast<size_t>(fs.n));
    for (int64_t oc = 0; oc < fs.n; ++oc) {
      int32_t raw = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        raw += static_cast<int32_t>(w[oc * k + kk]);
      }
      pw.filter_rowsum[static_cast<size_t>(oc)] = raw;
    }
  }
  // F16 operand caches for the on-the-fly-F16 (GPU) path: precompute exactly
  // the Half values the kernel's per-call conversion would produce, using the
  // same tensor-embedded quant params and the same expressions.
  if (config_.cpu_compute == DType::kF16 || config_.gpu_compute == DType::kF16) {
    const QuantParams w_qp{qf.scale(), qf.zero_point()};
    pw.filters_f16.resize(static_cast<size_t>(qf.NumElements()));
    for (int64_t i = 0; i < qf.NumElements(); ++i) {
      pw.filters_f16[static_cast<size_t>(i)] = Half(w_qp.Dequantize(w[i]));
    }
    const Tensor& bias_f32 = model_->weights.at(n.id).bias;
    if (!bias_f32.empty()) {
      const float* bp = bias_f32.Data<float>();
      pw.bias_f16.resize(static_cast<size_t>(bias_f32.NumElements()));
      for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
        pw.bias_f16[static_cast<size_t>(i)] = Half(bp[i]);
      }
    }
  }
  // Packed panels for the GEMM micro-kernels: the raw quantized filters for
  // the integer path, and the dequantized F16 cache for the via-F16 path.
  if (ShouldPackFilters(n)) {
    PackFilterTensor(w, fs, pw.filters_packed_qu8);
    if (!pw.filters_f16.empty()) {
      PackFilterTensor(pw.filters_f16.data(), fs, pw.filters_packed_f16);
    }
  }
}

void PreparedModel::Calibrate(const std::vector<Tensor>& inputs) {
  assert(config_.storage == DType::kQUInt8 && "only QUInt8 storage needs calibration");
  // Reject the whole set before touching any state: a bad input leaves a
  // previous calibration intact.
  RequireWeights(*model_, "Calibrate");
  if (inputs.empty()) {
    throw Error(ErrorCode::kInvalidArgument, "Calibrate: the calibration set is empty");
  }
  for (const Tensor& input : inputs) {
    CheckInput(graph(), input, "Calibrate");
  }
  // A throw below (degenerate bias scale) leaves the model uncalibrated
  // rather than half-updated.
  calibrated_ = false;
  // The calibration forward passes run the same threaded kernels as
  // execution; honor this config's thread budget.
  parallel::SetCpuThreads(config_.cpu_threads);

  // Observe per-node F32 activation ranges across the calibration set.
  std::vector<MinMaxObserver> obs(static_cast<size_t>(graph().size()));
  for (const Tensor& input : inputs) {
    const std::vector<Tensor> act = ForwardF32(*model_, input);
    for (const Node& n : graph().nodes()) {
      obs[static_cast<size_t>(n.id)].Observe(act[static_cast<size_t>(n.id)]);
    }
  }
  for (const Node& n : graph().nodes()) {
    act_qp_[static_cast<size_t>(n.id)] = obs[static_cast<size_t>(n.id)].Params();
  }

  // Quantize biases: bias_real = bias_i32 * (in_scale * w_scale).
  for (const Node& n : graph().nodes()) {
    if (!IsParameterized(n.desc.kind)) {
      continue;
    }
    PreparedWeights& pw = weights_.at(n.id);
    const Tensor& bias_f32 = model_->weights.at(n.id).bias;
    const float in_scale = act_qp_[static_cast<size_t>(n.inputs[0])].scale;
    pw.bias_i32 = Tensor(bias_f32.shape(), DType::kInt32);
    const float* src = bias_f32.Data<float>();
    int32_t* dst = pw.bias_i32.Data<int32_t>();
    const bool per_channel = !pw.per_channel.channels.empty();
    for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
      const float w_scale =
          per_channel ? pw.per_channel.channels[static_cast<size_t>(i)].scale
                      : pw.filters.scale();
      const float prod = in_scale * w_scale;
      // A zero/denormal/non-finite scale product would send the quotient to
      // +-inf and make the float->long conversion in lround undefined
      // behavior. Reject it like ComputeRequantScale rejects a degenerate
      // multiplier.
      if (!std::isfinite(prod) || prod < std::numeric_limits<float>::min()) {
        throw Error(ErrorCode::kQuantization,
                    "bias quantization: in_scale * w_scale is zero, denormal, or "
                    "non-finite",
                    n.id);
      }
      dst[i] = static_cast<int32_t>(std::lround(src[i] / prod));
    }
  }

  // Precompute the requantization multipliers the kernels would otherwise
  // derive per call. On a degenerate multiplier the cache entry is left
  // empty, so kernels recompute per call and the quantization Error surfaces
  // at Run().
  for (const Node& n : graph().nodes()) {
    if (!IsParameterized(n.desc.kind)) {
      continue;
    }
    PreparedWeights& pw = weights_.at(n.id);
    const float in_scale =
        act_qp_[static_cast<size_t>(EffectiveQuantSource(graph(), n.inputs[0]))].scale;
    const float out_scale = act_qp_[static_cast<size_t>(n.id)].scale;
    try {
      if (!pw.per_channel.channels.empty()) {
        pw.requant_per_channel.resize(pw.per_channel.channels.size());
        for (size_t oc = 0; oc < pw.per_channel.channels.size(); ++oc) {
          pw.requant_per_channel[oc] =
              ComputeRequantScale(static_cast<double>(in_scale) *
                                  static_cast<double>(pw.per_channel.channels[oc].scale) /
                                  static_cast<double>(out_scale));
        }
      } else {
        pw.requant = ComputeRequantScale(static_cast<double>(in_scale) *
                                         static_cast<double>(pw.filters.scale()) /
                                         static_cast<double>(out_scale));
        pw.has_requant = true;
      }
    } catch (const Error&) {
      pw.requant_per_channel.clear();
      pw.has_requant = false;
    }
  }
  calibrated_ = true;
}

DType PreparedModel::ActivationDType(int id) const {
  // Softmax output is class probabilities in F32 in every configuration.
  if (graph().node(id).desc.kind == LayerKind::kSoftmax) {
    return DType::kF32;
  }
  return config_.storage;
}

Tensor PreparedModel::MakeActivation(int id) const {
  const Node& n = graph().node(id);
  Tensor t(n.out_shape, ActivationDType(id));
  if (t.dtype() == DType::kQUInt8) {
    const QuantParams& qp = act_qp_[static_cast<size_t>(id)];
    t.set_quant_params(qp.scale, qp.zero_point);
  }
  return t;
}

Tensor PreparedModel::MakeActivationView(int id, uint8_t* buffer) const {
  const Node& n = graph().node(id);
  Tensor t = Tensor::View(n.out_shape, ActivationDType(id), buffer);
  if (t.dtype() == DType::kQUInt8) {
    const QuantParams& qp = act_qp_[static_cast<size_t>(id)];
    t.set_quant_params(qp.scale, qp.zero_point);
  }
  return t;
}

const Half* PreparedModel::FiltersF16Ptr(int id) const {
  const auto it = weights_.find(id);
  if (it == weights_.end() || it->second.filters_f16.empty()) {
    return nullptr;
  }
  return it->second.filters_f16.data();
}

const Half* PreparedModel::BiasF16Ptr(int id) const {
  const auto it = weights_.find(id);
  if (it == weights_.end() || it->second.bias_f16.empty()) {
    return nullptr;
  }
  return it->second.bias_f16.data();
}

const int32_t* PreparedModel::FilterRowSumPtr(int id) const {
  const auto it = weights_.find(id);
  if (it == weights_.end() || it->second.filter_rowsum.empty()) {
    return nullptr;
  }
  return it->second.filter_rowsum.data();
}

const RequantScale* PreparedModel::RequantPtr(int id) const {
  const auto it = weights_.find(id);
  if (it == weights_.end() || !it->second.has_requant) {
    return nullptr;
  }
  return &it->second.requant;
}

const uint8_t* PreparedModel::PackedFiltersQU8Ptr(int id) const {
  const auto it = weights_.find(id);
  if (it == weights_.end() || it->second.filters_packed_qu8.empty()) {
    return nullptr;
  }
  return it->second.filters_packed_qu8.data();
}

const float* PreparedModel::PackedFiltersF32Ptr(int id) const {
  const auto it = weights_.find(id);
  if (it == weights_.end() || it->second.filters_packed_f32.empty()) {
    return nullptr;
  }
  return it->second.filters_packed_f32.data();
}

const Half* PreparedModel::PackedFiltersF16Ptr(int id) const {
  const auto it = weights_.find(id);
  if (it == weights_.end() || it->second.filters_packed_f16.empty()) {
    return nullptr;
  }
  return it->second.filters_packed_f16.data();
}

const RequantScale* PreparedModel::PerChannelRequantPtr(int id) const {
  const auto it = weights_.find(id);
  if (it == weights_.end() || it->second.requant_per_channel.empty()) {
    return nullptr;
  }
  return it->second.requant_per_channel.data();
}

Tensor PreparedModel::PrepareInput(const Tensor& f32_input) const {
  RequireWeights(*model_, "PrepareInput");
  CheckInput(graph(), f32_input, "PrepareInput");
  switch (config_.storage) {
    case DType::kF32:
      return f32_input;
    case DType::kF16:
      return ToF16Tensor(f32_input);
    case DType::kQUInt8: {
      if (!calibrated_) {
        throw Error(ErrorCode::kInvalidArgument,
                    "PrepareInput: QUInt8 storage needs Calibrate() first");
      }
      return QuantizeTensor(f32_input, act_qp_[0]);
    }
    case DType::kInt32:
      break;
  }
  assert(false && "unsupported storage dtype");
  return f32_input;
}

}  // namespace ulayer
