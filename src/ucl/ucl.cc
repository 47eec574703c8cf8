#include "ucl/ucl.h"

#include <algorithm>

namespace ulayer::ucl {

double Device::Schedule(double ready_us, double duration_us, DType compute, double bytes,
                        double* start_out) {
  const double start = std::max(ready_us, now_us_);
  if (start_out != nullptr) {
    *start_out = start;
  }
  now_us_ = start + duration_us;
  switch (compute) {
    case DType::kF32:
    case DType::kInt32:
      busy_f32_ += duration_us;
      break;
    case DType::kF16:
      busy_f16_ += duration_us;
      break;
    case DType::kQUInt8:
      busy_qu8_ += duration_us;
      break;
  }
  bytes_ += bytes;
  return now_us_;
}

double Device::BusyUs(DType compute) const {
  switch (compute) {
    case DType::kF32:
    case DType::kInt32:
      return busy_f32_;
    case DType::kF16:
      return busy_f16_;
    case DType::kQUInt8:
      return busy_qu8_;
  }
  return 0.0;
}

void Device::Reset() {
  now_us_ = 0.0;
  busy_f32_ = busy_f16_ = busy_qu8_ = 0.0;
  bytes_ = 0.0;
}

namespace {

double MaxComplete(const std::vector<Event>& waits) {
  double t = 0.0;
  for (const Event& e : waits) {
    t = std::max(t, e.complete_us);
  }
  return t;
}

// Maps an injector decision onto the failure status an enqueue returns
// (slowdown is not a failure; callers apply the factor instead).
Status FailureStatus(fault::FaultKind kind) {
  switch (kind) {
    case fault::FaultKind::kEnqueueFailed:
      return Status::kEnqueueFailed;
    case fault::FaultKind::kMapFailed:
      return Status::kMapFailed;
    case fault::FaultKind::kDeviceLost:
      return Status::kDeviceLost;
    case fault::FaultKind::kTimeout:
      return Status::kTimeout;
    case fault::FaultKind::kSlowdown:
      return Status::kOk;
  }
  return Status::kOk;
}

}  // namespace

std::string_view StatusName(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kEnqueueFailed:
      return "enqueue-failed";
    case Status::kMapFailed:
      return "map-failed";
    case Status::kDeviceLost:
      return "device-lost";
    case Status::kTimeout:
      return "timeout";
  }
  return "unknown";
}

EnqueueResult CommandQueue::EnqueueKernel(double body_us, DType compute, double bytes,
                                          const std::vector<Event>& waits) {
  return EnqueueKernelAt(0.0, body_us, compute, bytes, waits);
}

EnqueueResult CommandQueue::EnqueueKernelAt(double ready_us, double body_us, DType compute,
                                            double bytes, const std::vector<Event>& waits) {
  const double ready = std::max(ready_us, MaxComplete(waits));
  if (fault::FaultInjector* fi = ctx_->injector_; fi != nullptr) {
    if (const auto d = fi->OnCall(device_->kind(), fault::OpKind::kKernel, device_->now_us())) {
      switch (d->kind) {
        case fault::FaultKind::kSlowdown:
          body_us *= d->factor;
          break;
        case fault::FaultKind::kTimeout: {
          // The command hangs: the device is occupied for the timeout window
          // and the caller gets a failure whose event spans it.
          double start = 0.0;
          const double end = device_->Schedule(ready, d->timeout_us, compute, 0.0, &start);
          return EnqueueResult{Event{end, start}, Status::kTimeout};
        }
        default:
          // Fail-fast errors charge nothing; the queue state is untouched.
          return EnqueueResult{Event{ready, ready}, FailureStatus(d->kind)};
      }
    }
  }
  double start = 0.0;
  const double end = device_->Schedule(ready, device_->spec().kernel_launch_us + body_us,
                                       compute, bytes, &start);
  return EnqueueResult{Event{end, start}, Status::kOk};
}

EnqueueResult CommandQueue::EnqueueMap(const Buffer& buffer, MapAccess /*access*/,
                                       const std::vector<Event>& waits) {
  return EnqueueMapOp(buffer, fault::OpKind::kMap, waits);
}

EnqueueResult CommandQueue::EnqueueUnmap(const Buffer& buffer, const std::vector<Event>& waits) {
  return EnqueueMapOp(buffer, fault::OpKind::kUnmap, waits);
}

EnqueueResult CommandQueue::EnqueueMapOp(const Buffer& buffer, fault::OpKind op,
                                         const std::vector<Event>& waits) {
  const double ready = MaxComplete(waits);
  double cost = ctx_->timing_.MapUs();
  if (buffer.flag() == MemFlag::kCopyMode) {
    cost += static_cast<double>(buffer.size()) / (ctx_->soc_.copy_gb_per_s * 1e3);
  }
  if (fault::FaultInjector* fi = ctx_->injector_; fi != nullptr) {
    if (const auto d = fi->OnCall(device_->kind(), op, device_->now_us())) {
      switch (d->kind) {
        case fault::FaultKind::kSlowdown:
          cost *= d->factor;
          break;
        case fault::FaultKind::kTimeout: {
          double start = 0.0;
          const double end = ctx_->cpu_.Schedule(ready, d->timeout_us, DType::kF32, 0.0, &start);
          return EnqueueResult{Event{end, start}, Status::kTimeout};
        }
        default:
          return EnqueueResult{Event{ready, ready}, FailureStatus(d->kind)};
      }
    }
  }
  // Map/unmap work (cache maintenance or copy) executes on the CPU side.
  double start = 0.0;
  const double end = ctx_->cpu_.Schedule(ready, cost, DType::kF32,
                                         buffer.flag() == MemFlag::kCopyMode
                                             ? static_cast<double>(buffer.size())
                                             : 0.0,
                                         &start);
  return EnqueueResult{Event{end, start}, Status::kOk};
}

double Context::SyncPoint() {
  const double t = std::max(cpu_.now_us(), gpu_.now_us()) + soc_.sync_us;
  // Both devices are unavailable during the synchronization; advance both
  // clocks to the post-sync time.
  cpu_.Schedule(t, 0.0, DType::kF32, 0.0);
  gpu_.Schedule(t, 0.0, DType::kF32, 0.0);
  ++sync_count_;
  return t;
}

void Context::Reset() {
  cpu_.Reset();
  gpu_.Reset();
  sync_count_ = 0;
}

}  // namespace ulayer::ucl
