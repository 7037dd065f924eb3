#include "service/engine.h"

#include <algorithm>
#include <utility>

#include "util/error.h"
#include "util/fsio.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"

namespace spineless::service {
namespace {

std::string hex_u64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4)
    s.push_back(kDigits[(v >> shift) & 0xf]);
  return s;
}

std::string error_body(const std::string& what) {
  JsonWriter w;
  w.begin_object();
  w.kv("status", "error");
  w.kv("error", what);
  w.end_object();
  return w.str();
}

std::string simple_body(const char* status, const char* reason = nullptr) {
  JsonWriter w;
  w.begin_object();
  w.kv("status", status);
  if (reason != nullptr) w.kv("reason", reason);
  w.end_object();
  return w.str();
}

// The ok-response body. Key order is fixed and every answer-bearing field
// is always present for its (kind, fidelity) shape — byte-identity across
// restarts depends on this being a pure function of the result.
std::string ok_body(const WhatIfResult& r, RequestKind kind, bool degraded) {
  JsonWriter w;
  w.begin_object();
  w.kv("status", "ok");
  w.kv("fidelity", fidelity_name(r.fidelity));
  if (degraded) w.kv("degraded", true);
  switch (kind) {
    case RequestKind::kWhatIfFault:
    case RequestKind::kWhatIfTm:
      w.kv("p50_ms", r.p50_ms);
      w.kv("p99_ms", r.p99_ms);
      w.kv("delta_p50_ms", r.delta_p50_ms);
      w.kv("delta_p99_ms", r.delta_p99_ms);
      w.kv("flows", r.flows);
      w.kv("completed", r.completed);
      if (r.fidelity == Fidelity::kFluid) {
        w.kv("stalled", r.stalled);
      } else {
        if (kind == RequestKind::kWhatIfFault) {
          w.kv("outages", r.outages);
          w.kv("blackhole_s", r.blackhole_s);
          w.kv("detect_ms", r.detect_ms);
        }
        w.kv("goodput_recovery", r.goodput_recovery);
      }
      break;
    case RequestKind::kAffected:
      w.kv("affected_destinations", r.affected_destinations);
      w.key("sample");
      w.begin_array();
      for (topo::NodeId n : r.affected_sample)
        w.value(static_cast<std::int64_t>(n));
      w.end_array();
      w.kv("unreachable_pairs_delta", r.unreachable_pairs_delta);
      break;
    case RequestKind::kStatus:
      break;
  }
  w.end_object();
  return w.str();
}

}  // namespace

Engine::Engine(const WarmState& warm, const EngineConfig& cfg)
    : warm_(warm), cfg_(cfg) {
  cfg_.workers = std::max(1, cfg_.workers);
  watchdog_ = std::make_unique<util::Watchdog>(
      static_cast<std::size_t>(cfg_.workers), cfg_.retry);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

Engine::~Engine() { stop(); }

std::string Engine::respond(std::int64_t id, const std::string& body) const {
  // body is a complete JSON object; splice the id in as its first key.
  return "{\"id\":" + std::to_string(id) + "," + body.substr(1);
}

static WhatIfResult run_request_impl(const WarmState& warm, const Request& req,
                                     Fidelity fidelity,
                                     const std::function<bool()>& cancel) {
  switch (req.kind) {
    case RequestKind::kWhatIfFault:
      return fidelity == Fidelity::kFluid
                 ? warm.whatif_fault_fluid(req.fault_spec, req.seed_salt)
                 : warm.whatif_fault_packet(req.fault_spec, req.seed_salt,
                                            cancel);
    case RequestKind::kWhatIfTm:
      return warm.whatif_tm(req.tm, req.load_scale, req.seed_salt, fidelity,
                            cancel);
    case RequestKind::kAffected:
      return warm.affected(req.link, req.down);
    case RequestKind::kStatus:
      break;
  }
  throw Error("engine: status requests are answered inline");
}

std::string Engine::process(Job& job, util::CellContext* ctx) {
  const bool live = static_cast<bool>(job.done);
  Fidelity want = job.req.fidelity;
  bool degraded = false;
  if (want == Fidelity::kAuto) {
    want = Fidelity::kPacket;
    if (live && queue_depth() > cfg_.degrade_depth) {
      // Deep queue: answer this one at fluid fidelity to shed simulated
      // work, rather than letting every queued deadline burn down.
      want = Fidelity::kFluid;
      degraded = true;
    }
  }

  const std::uint64_t key =
      splitmix64(warm_.warm_hash() ^ util::fnv1a(job.body) ^
                 static_cast<std::uint64_t>(want == Fidelity::kFluid));
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      ++stats_.completed;
      return respond(job.req.id, it->second);
    }
  }

  std::uint64_t beats = 0;
  const auto cancel = [&]() -> bool {
    if (ctx != nullptr) {
      ctx->heartbeat(++beats);
      if (ctx->canceled()) return true;
    }
    return job.deadline.expired();
  };

  std::string body;
  bool cacheable = true;
  bool is_error = false;
  try {
    WhatIfResult res = run_request_impl(warm_, job.req, want, cancel);
    if (!res.finished) {
      // The packet run was cut short (deadline or watchdog). Degrade: a
      // fluid estimate is orders of magnitude cheaper and always finishes.
      degraded = true;
      res = run_request_impl(warm_, job.req, Fidelity::kFluid, {});
    }
    body = ok_body(res, job.req.kind, degraded);
    cacheable = !degraded;  // degraded answers depend on load, never cache
  } catch (const std::exception& e) {
    body = error_body(e.what());  // deterministic validation/spec errors
    is_error = true;
  }

  {
    std::lock_guard<std::mutex> l(mu_);
    ++stats_.completed;
    if (degraded) ++stats_.degraded;
    if (is_error) ++stats_.errors;
    if (cacheable && cache_.find(key) == cache_.end()) {
      if (cache_fifo_.size() >= cfg_.cache_capacity && !cache_fifo_.empty()) {
        cache_.erase(cache_fifo_.front());
        cache_fifo_.pop_front();
      }
      cache_.emplace(key, body);
      cache_fifo_.push_back(key);
    }
  }
  return respond(job.req.id, body);
}

void Engine::submit(const std::string& line,
                    std::function<void(std::string)> done) {
  {
    std::lock_guard<std::mutex> l(mu_);
    ++stats_.submitted;
  }
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> l(mu_);
      ++stats_.errors;
    }
    // Parse failures have no trustworthy id; 0 marks "unattributable".
    done(respond(0, error_body(e.what())));
    return;
  }

  if (req.kind == RequestKind::kStatus) {
    done(respond(req.id, status_body()));
    return;
  }

  Job job;
  job.req = req;
  job.body = canonical_request_body(req);
  const double dl =
      req.deadline_ms > 0 ? req.deadline_ms : cfg_.default_deadline_ms;
  job.deadline = Deadline::after_ms(dl);
  job.done = std::move(done);

  {
    std::unique_lock<std::mutex> l(mu_);
    if (draining_ || stopping_) {
      ++stats_.drained_rejects;
      l.unlock();
      job.done(respond(req.id, simple_body("draining")));
      return;
    }
    if (queue_.size() >= cfg_.queue_limit) {
      ++stats_.shed;
      l.unlock();
      job.done(respond(req.id, simple_body("overloaded", "queue_full")));
      return;
    }
    ++stats_.admitted;
    queue_.push_back(std::move(job));
  }
  // Admission journal: a durable record of what the daemon accepted, in
  // replayable canonical form. Written outside the lock (fsync is slow).
  if (!cfg_.journal_path.empty())
    util::append_line_durable(cfg_.journal_path, canonical_request_line(req));
  cv_.notify_one();
}

std::string Engine::handle_line(const std::string& line) {
  {
    std::lock_guard<std::mutex> l(mu_);
    ++stats_.submitted;
  }
  Request req;
  try {
    req = parse_request(line);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> l(mu_);
    ++stats_.errors;
    return respond(0, error_body(e.what()));
  }
  if (req.kind == RequestKind::kStatus) return respond(req.id, status_body());
  Job job;
  job.req = req;
  job.body = canonical_request_body(req);
  job.deadline = Deadline::none();
  {
    std::lock_guard<std::mutex> l(mu_);
    ++stats_.admitted;
  }
  return process(job, nullptr);
}

void Engine::begin_drain() {
  std::lock_guard<std::mutex> l(mu_);
  draining_ = true;
}

void Engine::stop() {
  {
    std::lock_guard<std::mutex> l(mu_);
    draining_ = true;
    stopping_ = true;
  }
  cv_.notify_all();
  {
    std::unique_lock<std::mutex> l(mu_);
    idle_cv_.wait(l, [this] { return queue_.empty() && in_flight_ == 0; });
  }
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
}

std::size_t Engine::queue_depth() const {
  std::lock_guard<std::mutex> l(mu_);
  return queue_.size();
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> l(mu_);
  return stats_;
}

std::string Engine::status_body() const {
  JsonWriter w;
  w.begin_object();
  w.kv("status", "ok");
  w.kv("kind", "status");
  w.kv("topology", warm_.config().topology);
  w.kv("switches", static_cast<std::int64_t>(warm_.graph().num_switches()));
  w.kv("links", static_cast<std::int64_t>(warm_.graph().num_links()));
  w.kv("servers", static_cast<std::int64_t>(warm_.graph().total_servers()));
  w.kv("warm_hash", hex_u64(warm_.warm_hash()));
  w.kv("restored_from_disk", warm_.restored_from_disk());
  w.kv("baseline_p50_ms", warm_.baseline_packet().p50_ms);
  w.kv("baseline_p99_ms", warm_.baseline_packet().p99_ms);
  {
    std::lock_guard<std::mutex> l(mu_);
    w.kv("draining", draining_);
    w.kv("queue_depth", static_cast<std::uint64_t>(queue_.size()));
    w.kv("submitted", stats_.submitted);
    w.kv("admitted", stats_.admitted);
    w.kv("completed", stats_.completed);
    w.kv("errors", stats_.errors);
    w.kv("shed", stats_.shed);
    w.kv("degraded", stats_.degraded);
    w.kv("cache_hits", stats_.cache_hits);
    w.kv("drained_rejects", stats_.drained_rejects);
  }
  w.end_object();
  return w.str();
}

void Engine::worker_loop(int index) {
  util::CellSlot& slot = watchdog_->slot(static_cast<std::size_t>(index));
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> l(mu_);
      cv_.wait(l, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }

    std::string response;
    if (job.deadline.expired()) {
      // The deadline burned down while the request sat in the queue:
      // shedding it unexecuted is what keeps p99 bounded under overload.
      {
        std::lock_guard<std::mutex> l(mu_);
        ++stats_.shed;
      }
      response =
          respond(job.req.id, simple_body("overloaded", "deadline_expired"));
    } else {
      slot.token.reset();
      auto outcome = util::run_cell_attempts(
          slot, cfg_.retry, "request " + std::to_string(job.req.id),
          [&](util::CellContext& ctx) { return process(job, &ctx); });
      response = outcome.status.ok()
                     ? std::move(outcome.value)
                     : respond(job.req.id, error_body(outcome.status.error));
    }
    job.done(response);

    {
      std::lock_guard<std::mutex> l(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace spineless::service
