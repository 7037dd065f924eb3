#include "sim/monitor.h"

#include <algorithm>

namespace spineless::sim {

void QueueMonitor::start(Simulator& sim, Time from, Time until) {
  SPINELESS_CHECK(until > from);
  until_ = until;
  sim.schedule_at(from, this, 0);
}

void QueueMonitor::on_event(Simulator& sim, std::uint64_t /*ctx*/) {
  Sample s;
  s.t = sim.now();
  // Network exposes per-link occupancy through the Link objects; walk them
  // via the utilization API's sibling: occupancy is queued_bytes() now.
  // (QueueMonitor is a friend-free observer: Network lends the counts.)
  const auto occupancy = net_.queue_occupancy();
  for (const auto bytes : occupancy) {
    s.total_bytes += bytes;
    s.max_bytes = std::max(s.max_bytes, bytes);
  }
  samples_.push_back(s);
  if (sim.now() + interval_ <= until_) sim.schedule_after(interval_, this, 0);
}

void QueueMonitor::save_state(SnapshotWriter& w) const {
  w.i64(until_);
  w.u64(samples_.size());
  for (const Sample& s : samples_) {
    w.i64(s.t);
    w.i64(s.total_bytes);
    w.i64(s.max_bytes);
  }
}

void QueueMonitor::load_state(SnapshotReader& r) {
  until_ = r.i64();
  samples_.resize(r.u64());
  for (Sample& s : samples_) {
    s.t = r.i64();
    s.total_bytes = r.i64();
    s.max_bytes = r.i64();
  }
}

Summary QueueMonitor::max_queue_pkts() const {
  Summary s;
  for (const auto& sample : samples_)
    s.add(static_cast<double>(sample.max_bytes) / kDataPacketBytes);
  return s;
}

}  // namespace spineless::sim
