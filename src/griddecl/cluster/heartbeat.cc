#include "griddecl/cluster/heartbeat.h"

#include <cmath>

namespace griddecl::cluster {

Status ValidateHeartbeatOptions(const HeartbeatOptions& options) {
  if (!(options.interval_ms > 0.0)) {
    return Status::InvalidArgument("heartbeat interval_ms must be > 0");
  }
  if (options.suspect_after < 1 ||
      options.dead_after < options.suspect_after) {
    return Status::InvalidArgument(
        "heartbeat needs dead_after >= suspect_after >= 1");
  }
  return Status::Ok();
}

HeartbeatDetector::HeartbeatDetector(const HeartbeatOptions& options,
                                     uint32_t max_nodes)
    : options_(options) {
  slots_.reserve(max_nodes);
  for (uint32_t n = 0; n < max_nodes; ++n) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

void HeartbeatDetector::AdvanceTo(
    double now_ms, const std::function<bool(uint32_t, double)>& probe) {
  // Tick k fires at virtual time k * interval (k >= 1). Process every tick
  // in (processed_ms_, now_ms].
  const double interval = options_.interval_ms;
  uint64_t tick = static_cast<uint64_t>(std::floor(processed_ms_ / interval));
  const uint64_t last = static_cast<uint64_t>(std::floor(now_ms / interval));
  while (tick < last) {
    ++tick;
    const double t = static_cast<double>(tick) * interval;
    for (uint32_t n = 0; n < slots_.size(); ++n) {
      Slot& slot = *slots_[n];
      if (!slot.tracked) continue;
      const auto state = static_cast<NodeHealth>(slot.state.load());
      if (state == NodeHealth::kRemoved) continue;
      if (probe(n, t)) {
        ++counters_.beats;
        slot.misses = 0;
        if (state != NodeHealth::kAlive) {
          ++counters_.recovered;
          slot.state.store(static_cast<uint32_t>(NodeHealth::kAlive));
        }
        continue;
      }
      ++counters_.missed;
      ++slot.misses;
      if (state == NodeHealth::kAlive && slot.misses >= options_.suspect_after) {
        ++counters_.suspected;
        slot.state.store(static_cast<uint32_t>(NodeHealth::kSuspect));
      }
      if (static_cast<NodeHealth>(slot.state.load()) == NodeHealth::kSuspect &&
          slot.misses >= options_.dead_after) {
        ++counters_.died;
        slot.dead_since_ms.store(t);
        slot.state.store(static_cast<uint32_t>(NodeHealth::kDead));
      }
    }
  }
  if (now_ms > processed_ms_) processed_ms_ = now_ms;
}

void HeartbeatDetector::Track(uint32_t node) {
  if (node >= slots_.size()) return;
  slots_[node]->tracked = true;
}

void HeartbeatDetector::MarkRemoved(uint32_t node) {
  if (node >= slots_.size()) return;
  slots_[node]->state.store(static_cast<uint32_t>(NodeHealth::kRemoved));
}

void HeartbeatDetector::Reset(uint32_t node) {
  if (node >= slots_.size()) return;
  Slot& slot = *slots_[node];
  slot.misses = 0;
  slot.state.store(static_cast<uint32_t>(NodeHealth::kAlive));
}

NodeHealth HeartbeatDetector::HealthOf(uint32_t node) const {
  if (node >= slots_.size()) return NodeHealth::kRemoved;
  return static_cast<NodeHealth>(slots_[node]->state.load());
}

double HeartbeatDetector::DeadSinceMs(uint32_t node) const {
  if (node >= slots_.size()) return 0.0;
  return slots_[node]->dead_since_ms.load();
}

std::vector<uint32_t> HeartbeatDetector::DeadNodes() const {
  std::vector<uint32_t> dead;
  for (uint32_t n = 0; n < slots_.size(); ++n) {
    if (slots_[n]->tracked &&
        static_cast<NodeHealth>(slots_[n]->state.load()) == NodeHealth::kDead) {
      dead.push_back(n);
    }
  }
  return dead;
}

HeartbeatDetector::Counters HeartbeatDetector::counters() const {
  return counters_;
}

}  // namespace griddecl::cluster
