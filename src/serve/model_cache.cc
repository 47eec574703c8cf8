#include "serve/model_cache.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "core/partitioner.h"
#include "core/predictor.h"
#include "soc/timing.h"

namespace ulayer::serve {

Model MakeZooModel(const std::string& family, int batch, int image_hw) {
  if (family == "lenet5") {
    return MakeLeNet5(batch);  // Fixed 28x28 input; no resolution knob.
  }
  if (family == "alexnet") {
    return image_hw > 0 ? MakeAlexNet(batch, image_hw) : MakeAlexNet(batch);
  }
  if (family == "vgg16") {
    return image_hw > 0 ? MakeVgg16(batch, image_hw) : MakeVgg16(batch);
  }
  if (family == "googlenet") {
    return image_hw > 0 ? MakeGoogLeNet(batch, image_hw) : MakeGoogLeNet(batch);
  }
  if (family == "squeezenet") {
    return image_hw > 0 ? MakeSqueezeNetV11(batch, image_hw) : MakeSqueezeNetV11(batch);
  }
  if (family == "mobilenet") {
    return image_hw > 0 ? MakeMobileNetV1(batch, image_hw) : MakeMobileNetV1(batch);
  }
  if (family == "resnet18") {
    return image_hw > 0 ? MakeResNet18(batch, image_hw) : MakeResNet18(batch);
  }
  if (family == "resnet50") {
    return image_hw > 0 ? MakeResNet50(batch, image_hw) : MakeResNet50(batch);
  }
  if (family == "inceptionv3") {
    return image_hw > 0 ? MakeInceptionV3(batch, image_hw) : MakeInceptionV3(batch);
  }
  throw Error(ErrorCode::kInvalidArgument, "unknown zoo model family '" + family + "'");
}

ModelCache::ModelCache(const SocSpec& soc, const ExecConfig& config, Options options)
    : soc_(soc), config_(config), options_(std::move(options)) {
  // Canonical timing: the simulated schedule must not depend on the
  // functional thread budget (see the header contract).
  config_.cpu_threads = 0;
  if (options_.batch_sizes.empty() ||
      !std::is_sorted(options_.batch_sizes.begin(), options_.batch_sizes.end()) ||
      options_.batch_sizes.front() != 1 || options_.lanes <= 0) {
    throw Error(ErrorCode::kInvalidArgument,
                "ModelCache: batch_sizes must be ascending and start at 1, lanes positive");
  }
  for (int b : options_.batch_sizes) {
    if (b <= 0) {
      throw Error(ErrorCode::kInvalidArgument, "ModelCache: non-positive batch size");
    }
  }
}

std::unique_ptr<ModelCache::Entry> ModelCache::Prepare(const std::string& family, int batch) {
  auto e = std::make_unique<Entry>();
  e->batch = batch;
  e->model = std::make_unique<Model>(MakeZooModel(family, batch, options_.image_hw));
  if (options_.functional) {
    e->model->MaterializeWeights();  // Deterministic; independent of batch.
  }
  e->prepared = std::make_unique<PreparedModel>(*e->model, config_);

  const Graph& g = e->model->graph;
  const Shape in_shape = g.node(0).out_shape;
  if (options_.functional && config_.storage == DType::kQUInt8) {
    std::vector<Tensor> calib;
    calib.reserve(static_cast<size_t>(options_.calibration_inputs));
    for (int i = 0; i < options_.calibration_inputs; ++i) {
      Tensor t(in_shape, DType::kF32);
      FillUniform(t, options_.calibration_seed + static_cast<uint64_t>(i));
      calib.push_back(std::move(t));
    }
    e->prepared->Calibrate(calib);
  }

  // Partitioner plan priced on the batch-N graph: the predictor fits the
  // N-scaled work, so cooperative split ratios are tuned per batch size.
  const TimingModel timing(soc_);
  const LatencyPredictor predictor(timing, config_, {&g});
  e->plan = Partitioner(g, timing, config_, predictor, Partitioner::Options{}).Build();

  for (int l = 0; l < options_.lanes; ++l) {
    auto lane = std::make_unique<Lane>(*e->prepared, soc_);
    if (options_.functional) {
      lane->staging = Tensor(in_shape, DType::kF32);
      lane->image = Tensor(Shape{1, in_shape.c, in_shape.h, in_shape.w}, DType::kF32);
    }
    e->lanes.push_back(std::move(lane));
  }

  // Fault-free service estimate (simulate-only run on lane 0, before any
  // fault plan is installed).
  e->lanes[0]->exec.RunInto(e->plan, nullptr, e->lanes[0]->result);
  e->service_us = e->lanes[0]->result.latency_us;

  if (!fault_plan_.empty()) {
    for (auto& lane : e->lanes) {
      lane->exec.SetFaultPlan(fault_plan_);
    }
  }
  return e;
}

void ModelCache::Register(const std::string& family) {
  if (Has(family)) {
    return;
  }
  FamilyEntries fe;
  fe.by_batch.reserve(options_.batch_sizes.size());
  for (int b : options_.batch_sizes) {
    fe.by_batch.push_back(Prepare(family, b));
  }
  entries_.emplace(family, std::move(fe));
  families_.push_back(family);
}

bool ModelCache::Has(const std::string& family) const {
  return entries_.find(family) != entries_.end();
}

ModelCache::Entry& ModelCache::entry(const std::string& family, int batch) {
  return const_cast<Entry&>(std::as_const(*this).entry(family, batch));
}

const ModelCache::Entry& ModelCache::entry(const std::string& family, int batch) const {
  const auto it = entries_.find(family);
  if (it == entries_.end()) {
    throw Error(ErrorCode::kInvalidArgument, "ModelCache: family '" + family + "' not registered");
  }
  for (size_t i = 0; i < options_.batch_sizes.size(); ++i) {
    if (options_.batch_sizes[i] == batch) {
      return *it->second.by_batch[i];
    }
  }
  throw Error(ErrorCode::kInvalidArgument,
              "ModelCache: batch size " + std::to_string(batch) + " not registered");
}

double ModelCache::ServiceUs(const std::string& family, int batch) const {
  return entry(family, batch).service_us;
}

double ModelCache::UnitUs(const std::string& family) const {
  const int bmax = options_.batch_sizes.back();
  return ServiceUs(family, bmax) / static_cast<double>(bmax);
}

int ModelCache::LargestBatchLE(int64_t n) const {
  int best = 1;
  for (int b : options_.batch_sizes) {
    if (b <= n) {
      best = b;
    }
  }
  return best;
}

void ModelCache::SetFaultPlan(const fault::FaultPlan& plan) {
  fault_plan_ = plan;
  for (auto& [name, fe] : entries_) {
    (void)name;
    for (auto& e : fe.by_batch) {
      for (auto& lane : e->lanes) {
        lane->exec.SetFaultPlan(fault_plan_);
      }
    }
  }
}

}  // namespace ulayer::serve
