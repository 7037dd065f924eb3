// The spinelessd request engine: a bounded admission queue in front of a
// self-healing worker pool (util/resilient), with the robustness ladder the
// service is built around:
//
//   - backpressure: a full queue rejects immediately with `overloaded`
//     instead of building an unbounded backlog;
//   - deadlines: a request whose deadline expires while queued is shed
//     without running; one that expires mid-run is cooperatively canceled
//     at a quiescent segment boundary;
//   - graceful degradation: `auto`-fidelity requests downgrade from packet
//     to fluid answers when the queue is deep or a packet run was
//     canceled — an approximate answer with a `fidelity`/`degraded` tag
//     beats no answer;
//   - self-healing: each worker attempt runs under run_cell_attempts with
//     a shared Watchdog, so a wedged or throwing request is classified and
//     answered (`error`) instead of taking the daemon down;
//   - caching: deterministic answers are memoized by
//     (warm_hash, canonical_request_body), so repeated what-ifs are served
//     from memory. Cached and recomputed bodies are byte-identical by the
//     determinism contract, so no `cached` marker appears in responses.
//
// Response bodies never contain wall-clock values; timing lives in the
// `status` request (excluded from the byte-identity contract) and bench
// output.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/deadline.h"
#include "service/request.h"
#include "service/warm_state.h"
#include "util/resilient.h"

namespace spineless::service {

struct EngineConfig {
  int workers = 2;
  std::size_t queue_limit = 16;   // queued (not in-flight) requests
  std::size_t degrade_depth = 8;  // auto fidelity -> fluid beyond this depth
  std::size_t cache_capacity = 256;  // FIFO-evicted result cache entries
  double default_deadline_ms = 0;    // applied when a request carries none
  util::RetryPolicy retry;  // per-attempt watchdog/retry for workers
  std::string journal_path;  // "" = no admission journal
};

struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;     // error responses (parse or execution)
  std::uint64_t shed = 0;       // overloaded responses (queue or deadline)
  std::uint64_t degraded = 0;   // packet -> fluid downgrades
  std::uint64_t cache_hits = 0;
  std::uint64_t drained_rejects = 0;  // refused with `draining`
};

class Engine {
 public:
  Engine(const WarmState& warm, const EngineConfig& cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Asynchronous path (the daemon): parses and admits `line`; `done` is
  // invoked exactly once with the full response line — inline for
  // rejections (parse error, overload, draining), from a worker thread
  // otherwise. `done` must be thread-safe.
  void submit(const std::string& line, std::function<void(std::string)> done);

  // Synchronous path (replay mode and tests): parse + execute inline on
  // the calling thread. No admission control, no deadline, `auto` resolves
  // to packet — a trace replayed through this path is fully deterministic.
  std::string handle_line(const std::string& line);

  // Graceful drain: new submits are refused with `draining`; queued and
  // in-flight requests still complete. stop() waits for the queue to empty
  // and joins the workers (idempotent; the destructor calls it).
  void begin_drain();
  void stop();

  std::size_t queue_depth() const;
  EngineStats stats() const;
  const WarmState& warm() const noexcept { return warm_; }

  // The `status` response body (no "id" key; the caller prefixes it).
  std::string status_body() const;

 private:
  struct Job {
    Request req;
    std::string body;  // canonical_request_body (cache key + journal)
    Deadline deadline;
    std::function<void(std::string)> done;
  };

  // Executes one parsed request at `fidelity` and returns the response
  // body (everything after `"id":N,`). Deterministic for a fixed resolved
  // fidelity. Sets *canceled when a packet run was cut short.
  std::string execute(const Request& req, Fidelity fidelity,
                      const std::function<bool()>& cancel,
                      bool* canceled) const;

  std::string respond(std::int64_t id, const std::string& body) const;
  std::string process(Job& job, util::CellContext* ctx);
  void worker_loop(int index);

  const WarmState& warm_;
  EngineConfig cfg_;
  std::unique_ptr<util::Watchdog> watchdog_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // workers wait for jobs
  std::condition_variable idle_cv_;  // stop() waits for quiescence
  std::deque<Job> queue_;
  int in_flight_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  EngineStats stats_;
  std::map<std::uint64_t, std::string> cache_;
  std::deque<std::uint64_t> cache_fifo_;

  std::vector<std::thread> workers_;
};

}  // namespace spineless::service
