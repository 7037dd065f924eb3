#include "sim/simulator.h"

namespace spineless::sim {

bool Simulator::run_until(Time deadline) {
  while (!heap_.empty() && heap_[0].t <= deadline) dispatch_top();
  cur_key_ = &root_key_;
  if (now_ < deadline) now_ = deadline;
  return !heap_.empty();
}

bool Simulator::run_until_bounded(Time deadline, int budget) {
  while (budget > 0 && !heap_.empty() && heap_[0].t <= deadline) {
    dispatch_top();
    --budget;
  }
  cur_key_ = &root_key_;
  if (!heap_.empty() && heap_[0].t <= deadline) return true;
  if (now_ < deadline) now_ = deadline;
  return false;
}

bool Simulator::run_until_key_bounded(Time t_bound, std::uint64_t prio_bound,
                                      int budget) {
  while (budget > 0 && !heap_.empty() &&
         (heap_[0].t < t_bound ||
          (heap_[0].t == t_bound && heap_[0].prio < prio_bound))) {
    dispatch_top();
    --budget;
  }
  cur_key_ = &root_key_;
  return !heap_.empty() &&
         (heap_[0].t < t_bound ||
          (heap_[0].t == t_bound && heap_[0].prio < prio_bound));
}

void Simulator::run() {
  while (!heap_.empty()) dispatch_top();
  cur_key_ = &root_key_;
}

void Simulator::dispatch_external(const Event& e) {
  SPINELESS_DCHECK(e.t >= now_);
  now_ = e.t;
  ++processed_;
  cur_key_ = &e.sink->prio_key_;
  e.sink->on_event(*this, e.ctx);
  cur_key_ = &root_key_;
}

void Simulator::assign_lazy_oid() {
  SPINELESS_DCHECK(lazy_oid_ > 0);
  *cur_key_ = static_cast<std::uint64_t>(lazy_oid_--)
              << EventSink::kPrioCounterBits;
}

bool Simulator::route_external(Time t, std::uint64_t prio, EventSink* sink,
                               std::uint64_t ctx) {
  const std::int32_t target = sink->shard_;
  if (target == self_shard_ || target == EventSink::kShardLocal) {
    // kShardLocal sinks scheduled from the control context would land in
    // the control heap, which never runs — every sink a sharded run
    // touches from setup/global context must carry a real shard or be
    // global (Network assigns these identities).
    SPINELESS_CHECK_MSG(
        self_shard_ != kControlShard || target != EventSink::kShardLocal,
        "scheduling a shard-local sink from the sharded control context");
    return false;
  }
  const ShardRouter::RoutedEvent e{t, prio, sink, ctx};
  if (target == EventSink::kShardGlobal) {
    router_->post_global(self_shard_, e);
  } else {
    router_->post(self_shard_, target, e);
  }
  return true;
}

}  // namespace spineless::sim
