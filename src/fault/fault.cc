#include "fault/fault.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/error.h"

namespace ulayer::fault {
namespace {

[[noreturn]] void ParseFail(const std::string& spec, const std::string& why) {
  throw Error(ErrorCode::kParse, "fault spec '" + spec + "': " + why);
}

// splitmix64: tiny, seedable, and good enough for Bernoulli draws. The whole
// point is determinism, not statistical quality.
uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Parses all of `text` as a T. False on an empty token, a sign an unsigned T
// cannot take, trailing characters, or a value out of T's range.
template <typename T>
bool ParseWhole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// Shortest form that parses back to exactly `v`.
std::string FormatNumber(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  assert(ec == std::errc());
  (void)ec;
  return std::string(buf, ptr);
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEnqueueFailed:
      return "enqueue-failed";
    case FaultKind::kMapFailed:
      return "map-failed";
    case FaultKind::kDeviceLost:
      return "device-lost";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kSlowdown:
      return "slow";
  }
  return "unknown";
}

std::string_view OpKindName(OpKind op) {
  switch (op) {
    case OpKind::kKernel:
      return "kernel";
    case OpKind::kMap:
      return "map";
    case OpKind::kUnmap:
      return "unmap";
    case OpKind::kAny:
      return "any";
  }
  return "unknown";
}

std::string FaultRule::ToString() const {
  std::ostringstream os;
  os << (device == ProcKind::kCpu ? "cpu" : "gpu") << "." << OpKindName(op);
  if (node >= 0) {
    os << "@node:" << node;
  }
  if (call >= 0) {
    os << "@call:" << call;
  }
  if (probability >= 0.0) {
    os << "@prob:" << FormatNumber(probability);
  }
  if (limit >= 0) {
    os << "@limit:" << limit;
  }
  os << "=" << FaultKindName(kind);
  if (kind == FaultKind::kTimeout) {
    os << ":" << FormatNumber(timeout_us);
  } else if (kind == FaultKind::kSlowdown) {
    os << ":" << FormatNumber(factor);
  }
  return os.str();
}

std::string FaultEvent::ToString() const {
  std::ostringstream os;
  os << FaultKindName(kind) << " on " << (device == ProcKind::kCpu ? "cpu" : "gpu") << "."
     << OpKindName(op) << " call " << call;
  if (node >= 0) {
    os << " (node " << node << ")";
  }
  os << " at " << at_us << "us";
  return os.str();
}

FaultPlan FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t sep = spec.find(';', pos);
    if (sep == std::string::npos) {
      sep = spec.size();
    }
    std::string item = spec.substr(pos, sep - pos);
    pos = sep + 1;
    // Trim surrounding whitespace.
    const size_t b = item.find_first_not_of(" \t\n");
    if (b == std::string::npos) {
      if (pos > spec.size()) {
        break;
      }
      continue;  // Empty item (trailing ';' or blank spec).
    }
    item = item.substr(b, item.find_last_not_of(" \t\n") - b + 1);

    if (item.rfind("seed=", 0) == 0) {
      if (!ParseWhole(std::string_view(item).substr(5), plan.seed)) {
        ParseFail(spec, "bad seed '" + item + "' (want an unsigned 64-bit integer)");
      }
      continue;
    }

    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      ParseFail(spec, "rule '" + item + "' has no '=effect'");
    }
    const std::string lhs = item.substr(0, eq);
    const std::string effect = item.substr(eq + 1);
    FaultRule rule;

    // Target: device '.' op, then '@'-separated selectors.
    const size_t at = lhs.find('@');
    const std::string target = lhs.substr(0, at);
    const size_t dot = target.find('.');
    if (dot == std::string::npos) {
      ParseFail(spec, "target '" + target + "' wants <device>.<op>");
    }
    const std::string dev = target.substr(0, dot);
    const std::string op = target.substr(dot + 1);
    if (dev == "cpu" || dev == "gpu") {
      rule.device = dev == "cpu" ? ProcKind::kCpu : ProcKind::kGpu;
    } else {
      ParseFail(spec, "unknown device '" + dev + "' (want cpu|gpu)");
    }
    if (op == "kernel") {
      rule.op = OpKind::kKernel;
    } else if (op == "map") {
      rule.op = OpKind::kMap;
    } else if (op == "unmap") {
      rule.op = OpKind::kUnmap;
    } else if (op == "any") {
      rule.op = OpKind::kAny;
    } else {
      ParseFail(spec, "unknown op '" + op + "' (want kernel|map|unmap|any)");
    }

    unsigned seen = 0;  // One bit per selector key: each may appear once.
    size_t sel_pos = at;
    while (sel_pos != std::string::npos && sel_pos < lhs.size()) {
      size_t next = lhs.find('@', sel_pos + 1);
      const std::string sel =
          lhs.substr(sel_pos + 1, (next == std::string::npos ? lhs.size() : next) - sel_pos - 1);
      const size_t colon = sel.find(':');
      if (colon == std::string::npos) {
        ParseFail(spec, "selector '@" + sel + "' wants '<key>:<value>'");
      }
      const std::string key = sel.substr(0, colon);
      const std::string_view value = std::string_view(sel).substr(colon + 1);
      unsigned bit = 0;
      bool ok = false;
      if (key == "node") {
        bit = 1;
        ok = ParseWhole(value, rule.node) && rule.node >= 0;
      } else if (key == "call") {
        bit = 2;
        ok = ParseWhole(value, rule.call) && rule.call >= 1;
      } else if (key == "prob") {
        bit = 4;
        ok = ParseWhole(value, rule.probability) && rule.probability > 0.0 &&
             rule.probability <= 1.0;
      } else if (key == "limit") {
        bit = 8;
        ok = ParseWhole(value, rule.limit) && rule.limit >= 0;
      } else {
        ParseFail(spec, "unknown selector '" + key + "' (want node|call|prob|limit)");
      }
      if ((seen & bit) != 0) {
        ParseFail(spec, "selector '@" + key + "' repeats in '" + item + "'");
      }
      seen |= bit;
      if (!ok) {
        ParseFail(spec, "selector '@" + sel +
                            "' is malformed or out of domain (node and limit >= 0; call is "
                            "1-based; prob in (0, 1])");
      }
      sel_pos = next;
    }

    const size_t ecolon = effect.find(':');
    const std::string ename = effect.substr(0, ecolon);
    const bool has_arg = ecolon != std::string::npos;
    double earg = 0.0;
    if (has_arg && !ParseWhole(std::string_view(effect).substr(ecolon + 1), earg)) {
      ParseFail(spec, "effect '" + effect + "' has a malformed argument");
    }
    if (ename == "enqueue-failed") {
      rule.kind = FaultKind::kEnqueueFailed;
    } else if (ename == "map-failed") {
      rule.kind = FaultKind::kMapFailed;
    } else if (ename == "device-lost") {
      rule.kind = FaultKind::kDeviceLost;
    } else if (ename == "timeout") {
      rule.kind = FaultKind::kTimeout;
      if (!has_arg || !(earg >= 0.0) || !std::isfinite(earg)) {
        ParseFail(spec, "timeout wants a non-negative microsecond argument");
      }
      rule.timeout_us = earg;
    } else if (ename == "slow") {
      rule.kind = FaultKind::kSlowdown;
      if (!has_arg || !(earg >= 1.0) || !std::isfinite(earg)) {
        ParseFail(spec, "slow wants a factor >= 1");
      }
      rule.factor = earg;
    } else {
      ParseFail(spec, "unknown effect '" + ename +
                          "' (want enqueue-failed|map-failed|device-lost|timeout:<us>|"
                          "slow:<factor>)");
    }
    if (has_arg && rule.kind != FaultKind::kTimeout && rule.kind != FaultKind::kSlowdown) {
      ParseFail(spec, "effect '" + ename + "' in '" + item + "' takes no argument");
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

FaultPlan FaultPlan::FromEnv() {
  const char* spec = std::getenv("ULAYER_FAULTS");
  if (spec == nullptr || spec[0] == '\0') {
    return FaultPlan{};
  }
  return Parse(spec);
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "seed=" << seed;
  for (const FaultRule& r : rules) {
    os << ";" << r.ToString();
  }
  return os.str();
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) { ResetRun(); }

void FaultInjector::ResetRun() {
  rng_state_ = plan_.seed;
  for (auto& per_device : counts_) {
    std::fill(std::begin(per_device), std::end(per_device), 0);
  }
  fired_.assign(plan_.rules.size(), 0);
  events_.clear();
  slowdowns_ = 0;
  node_ = -1;
}

double FaultInjector::NextUniform() {
  return static_cast<double>(SplitMix64(rng_state_) >> 11) * 0x1.0p-53;
}

std::optional<FaultInjector::Decision> FaultInjector::OnCall(ProcKind device, OpKind op,
                                                             double now_us) {
  assert(op != OpKind::kAny && "OnCall counts one concrete call class");
  int64_t* dev_counts = counts_[device == ProcKind::kCpu ? 0 : 1];
  const int64_t count = ++dev_counts[static_cast<size_t>(op)];
  std::optional<Decision> decision;
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& r = plan_.rules[i];
    if (r.device != device || (r.op != OpKind::kAny && r.op != op)) {
      continue;
    }
    if (r.limit >= 0 && fired_[i] >= r.limit) {
      continue;
    }
    if (r.node >= 0 && r.node != node_) {
      continue;
    }
    // kAny rules with a @call selector count calls across all op classes.
    const int64_t matched_calls =
        r.op == OpKind::kAny ? dev_counts[0] + dev_counts[1] + dev_counts[2] : count;
    if (r.call >= 0 && r.call != matched_calls) {
      continue;
    }
    // The draw happens on every evaluation of a probabilistic rule so the
    // stream position — hence the whole fault trace — is a pure function of
    // (plan, call sequence).
    if (r.probability >= 0.0 && NextUniform() >= r.probability) {
      continue;
    }
    if (decision.has_value()) {
      continue;  // First matching rule wins; later rules still draw above.
    }
    ++fired_[i];
    decision = Decision{r.kind, r.timeout_us, r.factor};
    if (r.kind == FaultKind::kSlowdown) {
      ++slowdowns_;
    } else {
      FaultEvent ev;
      ev.kind = r.kind;
      ev.device = device;
      ev.op = op;
      ev.node = node_;
      ev.call = count;
      ev.at_us = now_us;
      ev.charged_us = r.kind == FaultKind::kTimeout ? r.timeout_us : 0.0;
      events_.push_back(ev);
    }
  }
  return decision;
}

}  // namespace ulayer::fault
