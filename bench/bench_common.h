// Shared helpers for the figure/table reproduction binaries.
//
// Every bench supports two scales:
//  * default  — a medium configuration (same switch roles, 3:1
//    oversubscription, ~1/2 the port count) that finishes in seconds;
//  * --scale=paper or SPINELESS_PAPER_SCALE=1 — the paper's §5.1
//    configuration (leaf-spine(48,16), 3072 servers, 12-supernode DRing).
//
// Every bench also supports --jobs=N (default: SPINELESS_JOBS or hardware
// concurrency): independent cells fan out over a core::Runner, and output
// is byte-identical for every N because cells derive their randomness from
// their index and results are collected in index order. Each bench writes
// a machine-readable BENCH_<name>.json next to the working directory
// (override the path with --json_out=...).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fct_experiment.h"
#include "core/hybrid_experiment.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/fsio.h"
#include "util/json.h"
#include "util/resilient.h"
#include "util/sweep_journal.h"

namespace spineless::bench {

// Process-start timestamp for total_wall_s. A namespace-scope inline
// constant so it is captured during static initialization — BenchJson used
// to start this clock at its own construction, after every cell had
// already run, reporting totals near zero.
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

// --- SIGINT/SIGTERM handling -----------------------------------------------
// First signal: set the flag; cells poll it at their checkpoint boundaries,
// flush a final snapshot, and the driver writes a partial BENCH JSON.
// Second signal: the user really means it — hard-exit.
namespace detail {
inline std::atomic<bool> g_interrupted{false};
inline void on_signal(int) {
  if (g_interrupted.exchange(true)) std::_Exit(130);
}
}  // namespace detail

inline bool interrupted() {
  return detail::g_interrupted.load(std::memory_order_acquire);
}

inline void install_signal_handlers() {
  std::signal(SIGINT, detail::on_signal);
  std::signal(SIGTERM, detail::on_signal);
}

// Where a bench writes its machine-readable results: --json_out=PATH, else
// BENCH_<name>.json in the working directory.
inline std::string json_out_path(const Flags& flags, const std::string& name) {
  return flags.get("json_out", "BENCH_" + name + ".json");
}

inline core::Scenario scenario_from(const Flags& flags) {
  core::Scenario s;
  if (flags.paper_scale()) {
    s = core::Scenario::paper();
  } else {
    // Medium default: leaf-spine(24, 8) -> 32 racks, 768 servers; flat
    // equivalents use the same 48 switches... (x + 2y = 40 switches).
    s.x = 24;
    s.y = 8;
    s.dring_supernodes = 10;
  }
  s.x = static_cast<int>(flags.get_int("x", s.x));
  s.y = static_cast<int>(flags.get_int("y", s.y));
  s.dring_supernodes = static_cast<int>(
      flags.get_int("supernodes", s.dring_supernodes));
  s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  return s;
}

inline int jobs_from(const Flags& flags) {
  const auto jobs = flags.get_int("jobs", core::default_jobs());
  return jobs < 1 ? 1 : static_cast<int>(jobs);
}

// --intra_jobs=N: shards per simulated cell (sharded conservative engine;
// results are byte-identical for every N). Default 1 = one shard, no threads.
inline int intra_jobs_from(const Flags& flags) {
  const auto intra = flags.get_int("intra_jobs", 1);
  return intra < 1 ? 1 : static_cast<int>(intra);
}

// Outer (cell-level) worker count once each cell takes intra_jobs threads:
// --jobs is the total thread budget, split as outer x intra.
inline int outer_jobs(const Flags& flags) {
  return std::max(1, jobs_from(flags) / intra_jobs_from(flags));
}

// Self-healing knobs: --max_attempts (retries on the same seed),
// --cell_timeout_s (per-attempt wall clock), --progress_timeout_s (max
// seconds without the event counter advancing), --backoff_s. SIGINT/SIGTERM
// compose in as the external interrupt, so a ^C cancels cells at their next
// checkpoint boundary instead of killing the process mid-write.
inline util::RetryPolicy retry_policy_from(const Flags& flags) {
  util::RetryPolicy p;
  p.max_attempts =
      std::max<int>(1, static_cast<int>(flags.get_int("max_attempts", 2)));
  p.wall_timeout_s = flags.get_double("cell_timeout_s", 0);
  p.progress_timeout_s = flags.get_double("progress_timeout_s", 0);
  p.backoff_base_s = flags.get_double("backoff_s", 0.25);
  p.interrupted = [] { return interrupted(); };
  return p;
}

inline void print_header(const char* title, const core::Scenario& s,
                         const Flags& flags) {
  std::printf("== %s ==\n", title);
  std::printf(
      "scenario: leaf-spine(x=%d, y=%d) | %d switches x %d ports | "
      "%d servers | DRing m=%d | scale=%s | jobs=%d\n\n",
      s.x, s.y, s.num_switches(), s.ports_per_switch(),
      s.leaf_spine_servers(), s.dring_supernodes,
      flags.paper_scale() ? "paper" : "medium", jobs_from(flags));
}

// A cell result plus the wall-clock seconds that cell took on its worker.
template <typename R>
struct Timed {
  R value{};
  double wall_s = 0;
};

// Fans fn(0..n-1) over the runner, wall-timing each cell. Results come
// back in index order regardless of jobs (see core::Runner's determinism
// contract), so drivers print them exactly as a serial loop would have.
template <typename Fn>
auto sweep(core::Runner& runner, std::size_t n, Fn&& fn)
    -> std::vector<Timed<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  return runner.map(n, [&fn](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    Timed<R> timed;
    timed.value = fn(i);
    timed.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return timed;
  });
}

// Accumulates per-cell rows and writes BENCH_<name>.json on write():
//   {"bench": ..., "scale": ..., "jobs": N, "total_wall_s": ...,
//    "cells": [{"label": ..., "wall_s": ..., "events": ...,
//               "events_per_sec": ..., "fct": {...}}, ...]}
class BenchJson {
 public:
  struct Cell {
    std::string label;
    double wall_s = 0;
    std::uint64_t events = 0;
    int intra_jobs = 1;
    double table_build_s = 0;
    // Self-healing runner outcome. Emitted only when non-default so a clean
    // run's JSON is byte-identical with or without the resilient path.
    std::string status = "ok";  // "ok" | "failed" | "interrupted"
    int attempts = 1;
    std::string error;
    bool has_fct = false;
    std::size_t flows = 0;
    std::size_t completed = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    std::int64_t drops = 0;
    std::int64_t retransmits = 0;
    // Fault-injection cells (bench_failures part 3): degradation metrics
    // from the FaultInjector / DegradationMonitor pair.
    bool has_fault = false;
    double blackhole_s = 0;
    double detect_ms = -1;  // first outage: BFD detection delay
    double outage_ms = -1;  // first outage: until tables routed around it
    std::int64_t blackhole_drops = 0;
    std::int64_t gray_drops = 0;
    std::int64_t corrupt_drops = 0;
    std::size_t rescued_flows = 0;   // completed only thanks to an RTO
    double goodput_recovery = 0;     // post-restore / pre-fault goodput
    int undetected_gray_windows = 0;
    std::size_t fault_outages = 0;   // control-plane outage events observed
    std::size_t fault_completed = 0;
    std::size_t fault_flows = 0;
    // Hybrid packet/fluid cells (bench_hybrid, bench_fig6_scale --scale=rng):
    // the per-flow byte-identity fingerprint plus the co-simulation split.
    bool has_hybrid = false;
    std::uint64_t result_hash = 0;
    std::uint64_t fluid_windows = 0;
    std::uint64_t fluid_solves = 0;
    std::uint64_t fluid_solves_skipped = 0;
    std::size_t internal_flows = 0;
    std::size_t boundary_flows = 0;
    std::size_t external_flows = 0;
    int region_switches = 0;
    int cut_links = 0;
    // Whole-network fault-tolerance cells (bench_hybrid --faults): the
    // cross-boundary fault metrics from HybridResult. goodput_recovery is
    // shared with the packet-fault block above — a cell is one or the other.
    bool has_hybrid_fault = false;
    int failed_links = 0;
    std::size_t stalled_flows = 0;
    std::size_t boundary_repins = 0;
    std::size_t fluid_outages = 0;
    double fluid_blackhole_s = 0;
    double stalled_s = 0;
    // Calibration cells (bench_hybrid): the pure-packet reference and the
    // hybrid/packet FCT ratios the documented tolerance is judged against.
    bool has_calib = false;
    double packet_p50_ms = 0;
    double packet_p99_ms = 0;
    double p50_ratio = 0;
    double p99_ratio = 0;

    bool operator==(const Cell&) const = default;

    // The cell's BENCH object — also its sweep-journal record, so a resumed
    // cell re-emits exactly these bytes. Optional fields and blocks appear
    // only when set, so a clean run's JSON is the same with or without the
    // resilient path.
    void write_json(JsonWriter& w) const;
    // Reads an object write_json produced; absent fields keep defaults.
    static Cell from_json(const JsonValue& o);
  };

  BenchJson(std::string name, const Flags& flags)
      : name_(std::move(name)),
        scale_(flags.get("scale", flags.paper_scale() ? "paper" : "medium")),
        jobs_(jobs_from(flags)),
        path_(json_out_path(flags, name_)) {}

  void add(Cell cell) { cells_.push_back(std::move(cell)); }

  // An interrupted sweep writes what it has, marked "partial": true; a
  // --resume run completes the rest.
  void mark_partial() { partial_ = true; }
  // A resumed sweep carries cell wall times from a previous process, which
  // can exceed this process's uptime — relax the total-wall sanity check.
  void mark_resumed() { resumed_ = true; }

  // Convenience: a cell backed by a timed FctResult.
  void add_fct(const std::string& label,
               const Timed<core::FctResult>& timed) {
    const core::FctResult& r = timed.value;
    Cell c;
    c.label = label;
    c.wall_s = timed.wall_s;
    c.events = r.events;
    c.intra_jobs = r.intra_jobs;
    c.table_build_s = r.table_build_s;
    c.has_fct = true;
    c.flows = r.flows;
    c.completed = r.completed;
    c.p50_ms = r.median_ms();
    c.p99_ms = r.p99_ms();
    c.drops = r.queue_drops;
    c.retransmits = r.retransmits;
    add(std::move(c));
  }

  // Writes the file; prints a one-line pointer so users find the artifact.
  void write() const {
    // total_wall_s counts from process start: with parallel cells it is
    // NOT the sum of cell times, but it can never be less than the
    // longest single cell.
    const double total_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      kProcessStart)
            .count();
    double max_cell_wall_s = 0;
    for (const Cell& c : cells_)
      max_cell_wall_s = std::max(max_cell_wall_s, c.wall_s);
    SPINELESS_CHECK_MSG(resumed_ || total_wall_s >= max_cell_wall_s,
                        "total_wall_s below the longest cell — the bench "
                        "clock must start at process start");
    JsonWriter w;
    w.begin_object();
    w.kv("bench", name_);
    w.kv("scale", scale_);
    w.kv("jobs", jobs_);
    if (partial_) w.kv("partial", true);
    w.kv("total_wall_s", total_wall_s);
    w.key("cells");
    w.begin_array();
    for (const Cell& c : cells_) c.write_json(w);
    w.end_array();
    w.end_object();
    if (write_json_file(path_, w))
      std::printf("\nwrote %s (%zu cells)\n", path_.c_str(), cells_.size());
    else
      std::fprintf(stderr, "warning: could not write %s\n", path_.c_str());
  }

 private:
  std::string name_;
  std::string scale_;
  int jobs_;
  std::string path_;
  std::vector<Cell> cells_;
  bool partial_ = false;
  bool resumed_ = false;
};

// --- The cell codec ----------------------------------------------------------
// write_json is the one encoding of a Cell: BenchJson::write emits it and the
// sweep journal stores it, so a cell that from_json reads back after a kill
// re-emits the same bytes. Doubles print as %.9g, and a decimal of 15 or
// fewer significant digits round-trips exactly through a double;
// events_per_sec derives from the printed wall_s for the same reason.

inline void BenchJson::Cell::write_json(JsonWriter& w) const {
  const double wall = json_rounded(wall_s);
  w.begin_object();
  w.kv("label", label);
  w.kv("wall_s", wall);
  w.kv("events", events);
  w.kv("events_per_sec", wall > 0 ? static_cast<double>(events) / wall : 0.0);
  w.kv("intra_jobs", intra_jobs);
  if (status != "ok") {
    w.kv("status", status);
    if (!error.empty()) w.kv("error", error);
  }
  if (attempts > 1) w.kv("attempts", attempts);
  if (table_build_s > 0) w.kv("table_build_s", table_build_s);
  if (has_fct) {
    w.key("fct");
    w.begin_object();
    w.kv("flows", static_cast<std::int64_t>(flows));
    w.kv("completed", static_cast<std::int64_t>(completed));
    w.kv("p50_ms", p50_ms);
    w.kv("p99_ms", p99_ms);
    w.kv("drops", drops);
    w.kv("retransmits", retransmits);
    w.end_object();
  }
  if (has_hybrid) {
    w.key("hybrid");
    w.begin_object();
    w.kv("result_hash", result_hash);
    w.kv("fluid_windows", fluid_windows);
    w.kv("fluid_solves", fluid_solves);
    w.kv("fluid_solves_skipped", fluid_solves_skipped);
    w.kv("internal_flows", static_cast<std::int64_t>(internal_flows));
    w.kv("boundary_flows", static_cast<std::int64_t>(boundary_flows));
    w.kv("external_flows", static_cast<std::int64_t>(external_flows));
    w.kv("region_switches", region_switches);
    w.kv("cut_links", cut_links);
    w.end_object();
  }
  if (has_hybrid_fault) {
    w.key("fault_tolerance");
    w.begin_object();
    w.kv("failed_links", failed_links);
    w.kv("fluid_outages", static_cast<std::int64_t>(fluid_outages));
    w.kv("stalled_flows", static_cast<std::int64_t>(stalled_flows));
    w.kv("boundary_repins", static_cast<std::int64_t>(boundary_repins));
    w.kv("fluid_blackhole_s", fluid_blackhole_s);
    w.kv("stalled_s", stalled_s);
    w.kv("goodput_recovery", goodput_recovery);
    w.end_object();
  }
  if (has_calib) {
    w.key("calibration");
    w.begin_object();
    w.kv("packet_p50_ms", packet_p50_ms);
    w.kv("packet_p99_ms", packet_p99_ms);
    w.kv("p50_ratio", p50_ratio);
    w.kv("p99_ratio", p99_ratio);
    w.end_object();
  }
  if (has_fault) {
    w.key("fault");
    w.begin_object();
    w.kv("blackhole_s", blackhole_s);
    w.kv("detect_ms", detect_ms);
    w.kv("outage_ms", outage_ms);
    w.kv("blackhole_drops", blackhole_drops);
    w.kv("gray_drops", gray_drops);
    w.kv("corrupt_drops", corrupt_drops);
    w.kv("rescued_flows", static_cast<std::int64_t>(rescued_flows));
    w.kv("goodput_recovery", goodput_recovery);
    w.kv("undetected_gray_windows", undetected_gray_windows);
    w.kv("ctrl_outages", static_cast<std::int64_t>(fault_outages));
    w.kv("completed", static_cast<std::int64_t>(fault_completed));
    w.kv("flows", static_cast<std::int64_t>(fault_flows));
    w.end_object();
  }
  w.end_object();
}

inline BenchJson::Cell BenchJson::Cell::from_json(const JsonValue& o) {
  // Sets `out` from member `key` of `obj` when present. JsonWriter prints
  // non-finite doubles as null, which reads back as NaN.
  const auto read = [](const JsonValue& obj, const char* key, auto& out) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr) return;
    using T = std::remove_reference_t<decltype(out)>;
    if constexpr (std::is_same_v<T, std::string>)
      out = v->as_string();
    else if constexpr (std::is_floating_point_v<T>)
      out = v->is_null() ? std::numeric_limits<T>::quiet_NaN()
                         : v->as_number();
    else if constexpr (std::is_signed_v<T>)
      out = static_cast<T>(v->as_int());
    else
      out = static_cast<T>(v->as_uint());
  };
  Cell c;
  read(o, "label", c.label);
  read(o, "wall_s", c.wall_s);
  read(o, "events", c.events);
  read(o, "intra_jobs", c.intra_jobs);
  read(o, "status", c.status);
  read(o, "error", c.error);
  read(o, "attempts", c.attempts);
  read(o, "table_build_s", c.table_build_s);
  if (const JsonValue* b = o.find("fct")) {
    c.has_fct = true;
    read(*b, "flows", c.flows);
    read(*b, "completed", c.completed);
    read(*b, "p50_ms", c.p50_ms);
    read(*b, "p99_ms", c.p99_ms);
    read(*b, "drops", c.drops);
    read(*b, "retransmits", c.retransmits);
  }
  if (const JsonValue* b = o.find("hybrid")) {
    c.has_hybrid = true;
    read(*b, "result_hash", c.result_hash);
    read(*b, "fluid_windows", c.fluid_windows);
    read(*b, "fluid_solves", c.fluid_solves);
    read(*b, "fluid_solves_skipped", c.fluid_solves_skipped);
    read(*b, "internal_flows", c.internal_flows);
    read(*b, "boundary_flows", c.boundary_flows);
    read(*b, "external_flows", c.external_flows);
    read(*b, "region_switches", c.region_switches);
    read(*b, "cut_links", c.cut_links);
  }
  if (const JsonValue* b = o.find("fault_tolerance")) {
    c.has_hybrid_fault = true;
    read(*b, "failed_links", c.failed_links);
    read(*b, "fluid_outages", c.fluid_outages);
    read(*b, "stalled_flows", c.stalled_flows);
    read(*b, "boundary_repins", c.boundary_repins);
    read(*b, "fluid_blackhole_s", c.fluid_blackhole_s);
    read(*b, "stalled_s", c.stalled_s);
    read(*b, "goodput_recovery", c.goodput_recovery);
  }
  if (const JsonValue* b = o.find("calibration")) {
    c.has_calib = true;
    read(*b, "packet_p50_ms", c.packet_p50_ms);
    read(*b, "packet_p99_ms", c.packet_p99_ms);
    read(*b, "p50_ratio", c.p50_ratio);
    read(*b, "p99_ratio", c.p99_ratio);
  }
  if (const JsonValue* b = o.find("fault")) {
    c.has_fault = true;
    read(*b, "blackhole_s", c.blackhole_s);
    read(*b, "detect_ms", c.detect_ms);
    read(*b, "outage_ms", c.outage_ms);
    read(*b, "blackhole_drops", c.blackhole_drops);
    read(*b, "gray_drops", c.gray_drops);
    read(*b, "corrupt_drops", c.corrupt_drops);
    read(*b, "rescued_flows", c.rescued_flows);
    read(*b, "goodput_recovery", c.goodput_recovery);
    read(*b, "undetected_gray_windows", c.undetected_gray_windows);
    read(*b, "ctrl_outages", c.fault_outages);
    read(*b, "completed", c.fault_completed);
    read(*b, "flows", c.fault_flows);
  }
  return c;
}

// --- rng-scale hybrid tier ---------------------------------------------------
// Skewed workload for the 10k-100k-switch hybrid cells (the AWS "RNG" design
// point): `hot_flows` flows fan in to the servers of the first `hot_tors`
// ToRs — the congested region the auto cut should find — plus `bg_flows`
// uniform background flows that stay fluid. Generated directly as a flow
// list: a dense RackTm would be O(racks^2) at this scale. Deterministic in
// (seed) alone, so cells are byte-identical for any --jobs split.
inline std::vector<workload::FlowSpec> rng_tier_flows(
    const topo::Graph& g, std::uint64_t seed, int hot_tors, int hot_flows,
    int bg_flows, std::int64_t bytes, Time arrival_window) {
  Rng rng(splitmix64(seed ^ 0x726e675fULL));
  std::vector<topo::HostId> hot;
  for (topo::NodeId t = 0; t < g.num_switches() && t < hot_tors; ++t)
    for (int s = 0; s < g.servers(t); ++s)
      hot.push_back(g.first_host_of(t) + s);
  const auto hosts = static_cast<std::uint64_t>(g.total_servers());
  std::vector<workload::FlowSpec> specs;
  specs.reserve(static_cast<std::size_t>(hot_flows + bg_flows));
  const auto draw_start = [&] {
    return static_cast<Time>(
        rng.uniform(static_cast<std::uint64_t>(arrival_window)));
  };
  for (int i = 0; i < hot_flows; ++i) {
    const auto dst = hot[rng.uniform(hot.size())];
    auto src = static_cast<topo::HostId>(rng.uniform(hosts));
    if (src == dst) src = static_cast<topo::HostId>((src + 1) % hosts);
    specs.push_back(workload::FlowSpec{src, dst, bytes, draw_start()});
  }
  for (int i = 0; i < bg_flows; ++i) {
    auto src = static_cast<topo::HostId>(rng.uniform(hosts));
    auto dst = static_cast<topo::HostId>(rng.uniform(hosts));
    if (dst == src) dst = static_cast<topo::HostId>((dst + 1) % hosts);
    specs.push_back(workload::FlowSpec{src, dst, bytes, draw_start()});
  }
  return specs;
}

// Copies a HybridResult into a journal-round-trippable cell.
inline BenchJson::Cell hybrid_cell(const std::string& label,
                                   const core::HybridResult& r) {
  BenchJson::Cell c;
  c.label = label;
  c.events = r.packet_events;
  c.intra_jobs = r.intra_jobs;
  c.table_build_s = r.table_build_s;
  c.has_fct = true;
  c.flows = r.flows;
  c.completed = r.completed;
  c.p50_ms = r.median_ms();
  c.p99_ms = r.p99_ms();
  c.drops = r.queue_drops;
  c.retransmits = r.retransmits;
  c.has_hybrid = true;
  c.result_hash = r.result_hash;
  c.fluid_windows = r.fluid_windows;
  c.fluid_solves = r.fluid_solves;
  c.fluid_solves_skipped = r.fluid_solves_skipped;
  c.internal_flows = r.internal_flows;
  c.boundary_flows = r.boundary_flows;
  c.external_flows = r.external_flows;
  c.region_switches = r.region_switches;
  c.cut_links = r.cut_links;
  return c;
}

// A hybrid cell plus the whole-network fault-tolerance metrics
// (bench_hybrid --faults).
inline BenchJson::Cell hybrid_fault_cell(const std::string& label,
                                         const core::HybridResult& r,
                                         int failed_links) {
  BenchJson::Cell c = hybrid_cell(label, r);
  c.has_hybrid_fault = true;
  c.failed_links = failed_links;
  c.stalled_flows = r.stalled_flows;
  c.boundary_repins = r.boundary_repins;
  c.fluid_outages = r.fluid_outages;
  c.fluid_blackhole_s = r.fluid_blackhole_seconds;
  c.stalled_s = r.stalled_seconds;
  c.goodput_recovery = r.goodput_recovery;
  return c;
}

// Everything scenario-shaped that changes cell results; benches append
// their own sweep-specific knobs before handing it to ResumableSweep.
inline std::string base_config_sig(const Flags& flags) {
  const core::Scenario s = scenario_from(flags);
  std::string sig = "x=" + std::to_string(s.x) + " y=" + std::to_string(s.y) +
                    " m=" + std::to_string(s.dring_supernodes) +
                    " seed=" + std::to_string(s.seed) +
                    " intra=" + std::to_string(intra_jobs_from(flags)) +
                    " scale=";
  sig += flags.paper_scale() ? "paper" : "medium";
  return sig;
}

// Per-sweep crash-safety state: the journal of finished cells, per-cell
// checkpoint paths, and the CheckpointSpec each running cell threads into
// its experiment. Flags: --resume, --audit, --checkpoint_ms plus the
// retry_policy_from knobs.
class ResumableSweep {
 public:
  ResumableSweep(const std::string& bench, const Flags& flags,
                 const std::string& config_sig)
      : resume_(flags.get_bool("resume", false)),
        audit_(flags.get_bool("audit", false)),
        checkpoint_ms_(flags.get_double("checkpoint_ms", 0)),
        policy_(retry_policy_from(flags)),
        journal_(json_out_path(flags, bench) + ".sweep.journal",
                 bench, config_sig, resume_) {}

  const util::RetryPolicy& policy() const noexcept { return policy_; }
  util::SweepJournal& journal() noexcept { return journal_; }
  bool resuming() const noexcept { return resume_; }

  // Periodic snapshot files are only worth their write cost when the user
  // asked for resumability; the audit/cancel/progress hooks are free of
  // them and always on.
  bool checkpoints_enabled() const noexcept {
    return resume_ || checkpoint_ms_ > 0;
  }

  std::string checkpoint_path(std::size_t i) const {
    return journal_.path() + ".cell" + std::to_string(i) + ".ckpt";
  }

  sim::CheckpointSpec spec_for(std::size_t i, util::CellContext& ctx) const {
    sim::CheckpointSpec spec;
    if (checkpoints_enabled()) spec.path = checkpoint_path(i);
    spec.resume = resume_;
    spec.audit = audit_;
    // --checkpoint_ms is wall-agnostic sim time (Time is picoseconds).
    spec.interval = static_cast<Time>(checkpoint_ms_ * 1e9);
    spec.cancel = [&ctx] { return ctx.canceled(); };
    spec.progress = [&ctx](std::uint64_t events) { ctx.heartbeat(events); };
    return spec;
  }

  // After a sweep completes (every cell ok or permanently failed — not
  // interrupted), its results live in the BENCH JSON; drop the recovery
  // artifacts so a later run starts clean. Beyond the cell checkpoints
  // themselves, a SIGKILL can land inside atomic_write_file and orphan a
  // "<ckpt>.tmp.<pid>" temp file whose pid belongs to the dead run, so
  // sweep the directory for anything prefixed by the journal name.
  void finish(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      util::remove_file(checkpoint_path(i));
    namespace fs = std::filesystem;
    const fs::path journal(journal_.path());
    const fs::path dir =
        journal.has_parent_path() ? journal.parent_path() : fs::path(".");
    const std::string prefix = journal.filename().string() + ".";
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (name.compare(0, prefix.size(), prefix) == 0) {
        std::error_code rm_ec;  // best-effort: a lost race is fine
        fs::remove(it->path(), rm_ec);
      }
    }
    journal_.remove();
  }

 private:
  bool resume_;
  bool audit_;
  double checkpoint_ms_;
  util::RetryPolicy policy_;
  util::SweepJournal journal_;
};

// Self-healing, resumable fan-out: journaled cells are returned as-is
// (skipped), the rest run under the watchdog/retry policy, and every cell
// that finishes (ok or permanently failed) is journaled. fn(i, ctx) must
// return a fully-populated BenchJson::Cell except wall_s/attempts/status,
// which this wrapper owns. Results come back in index order.
template <typename Fn>
std::vector<BenchJson::Cell> run_resumable(core::Runner& runner,
                                           std::size_t n,
                                           ResumableSweep& sweep, Fn&& fn) {
  // Snapshot the journal hits before the parallel map: get() is not safe
  // against a concurrent record(), but the records stay put, so the
  // prefetched pointers survive later inserts.
  std::vector<const JsonValue*> done(n, nullptr);
  for (std::size_t i = 0; i < n; ++i)
    done[i] = sweep.journal().get("cell" + std::to_string(i));

  util::Watchdog dog(n, sweep.policy());
  return runner.map(n, [&](std::size_t i) {
    if (done[i]) return BenchJson::Cell::from_json(*done[i]);
    const std::string label = "cell" + std::to_string(i);
    const auto start = std::chrono::steady_clock::now();
    auto out = util::run_cell_attempts(
        dog.slot(i), sweep.policy(), label,
        [&](util::CellContext& ctx) { return fn(i, ctx); });
    BenchJson::Cell cell = std::move(out.value);
    cell.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    cell.attempts = out.status.attempts;
    switch (out.status.state) {
      case util::CellState::kOk:
        break;
      case util::CellState::kFailed:
        cell.status = "failed";
        cell.error = out.status.error;
        if (cell.label.empty()) cell.label = label;
        break;
      case util::CellState::kInterrupted:
        // Not journaled: --resume re-runs it from its last checkpoint.
        cell.status = "interrupted";
        if (cell.label.empty()) cell.label = label;
        return cell;
    }
    JsonWriter record;
    cell.write_json(record);
    sweep.journal().record(label, record);
    return cell;
  });
}

}  // namespace spineless::bench
