#pragma once

/**
 * @file
 * Shared types of the benchmark harness: run configuration, the outcome of
 * one round of a workload, the check recorder, metrics, and the workload
 * interface every workload implements.
 *
 * Host time (wall clock of this process) and simulated/virtual time (cycles
 * and virtual microseconds the program reports) never share a metric.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layout/layout.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The virtual clock every workload converts cycles at (service_vus =
 *  ceil(cycles / kClockMhz)); slow enough that latencies carry digits. */
constexpr int64_t kClockMhz = 10;

inline int64_t
cyclesToVus(int64_t cycles)
{
    return (cycles + kClockMhz - 1) / kClockMhz;
}

/** Command-line configuration of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int pool = 1;        ///< largest pool size used (<= nproc, <= 4)
    std::string out_dir; ///< where the traced run writes its spans
};

/** Simulated and virtual results of one round: identical across rounds,
 *  pool sizes and host speed, or the run fails. */
struct Outcome
{
    int64_t attempted = 0;
    /** Operations that showed a known program fault (below); a fault is
     *  counted here, any other failed check fails the whole run. */
    int64_t failed = 0;
    /** Reported MACs equal the padded-lane count instead of the layer's
     *  own MAC count: the simulator counts the padded PE lanes of partial
     *  tiles as MACs. */
    int64_t mac_faults = 0;
    /** Analytic estimate off its cycle twin by more than
     *  sim::kAnalyticBound (pinned discordant input layouts). */
    int64_t bound_faults = 0;
    int64_t sim_cycles = 0; ///< cycle-accurate, verified results only
    std::vector<int64_t> vlat_vus; ///< one per cycle-accurate operation
    std::string digest; ///< every simulated/virtual field, in op order

    /** Tally one operation's known faults. */
    void
    noteFaults(bool macs, bool bound)
    {
        mac_faults += macs ? 1 : 0;
        bound_faults += bound ? 1 : 0;
        failed += macs || bound ? 1 : 0;
    }
};

/** Records failed checks; any entry fails the run. */
class Checker
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        if (!ok && failures_.size() < 64) failures_.push_back(what);
        if (!ok) ++count_;
    }
    bool ok() const { return count_ == 0; }
    int64_t count() const { return count_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::vector<std::string> failures_; ///< first 64, for the log
    int64_t count_ = 0;
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

class Tracer;

/** One planned layer: its iAct extents under its input layout, on an
 *  AW x AH array with t1 local reduction steps. */
struct PlanSample
{
    feather::Extents extents;
    feather::Layout layout;
    int aw = 0;
    int ah = 0;
    int64_t t1 = 1;
};

/** Per-layer counters of the traced run, read from the program's public
 *  results (DaemonReport, PlanCache::Stats, ScheduleResult, LayerStats).
 *  Workloads that never reach a layer leave its counters at 0. */
struct LayerCounters
{
    // Daemon, from the traced round's responses and report.
    double vqueue_vus = 0.0;   ///< mean virtual queue time per request
    double vservice_vus = 0.0; ///< mean virtual service time per request
    int64_t handoffs = 0;
    int64_t handoff_vus = 0;
    int64_t busy_vus_max = 0;
    /** Latency of multi-stage pipelines beyond queue + service +
     *  hand-off: waits between stages that no response field reports. */
    int64_t stage_wait_vus = 0;
    // Shared PlanCache of the direct pass.
    int64_t plan_hits = 0;
    int64_t plan_misses = 0;
    // Scheduler.
    int64_t evaluations = 0;
    int64_t repeat_evaluations = 0; ///< (graph, fleet, engine) seen before
    int64_t candidates = 0;
    int64_t search_nodes = 0;
    int64_t reorder_cycles = 0; ///< same-device edges of chosen schedules
    int64_t handoff_cycles = 0; ///< cross-device edges of chosen schedules
    // Simulator, summed LayerStats of the direct pass's cycle runs.
    int64_t cycle_runs = 0;
    int64_t analytic_runs = 0;
    double analytic_err_max = 0.0; ///< over analytic/cycle twins
    int64_t compute_cycles = 0;
    int64_t fill_cycles = 0;
    int64_t weight_load_cycles = 0;
    int64_t read_stall_cycles = 0;
    int64_t write_stall_cycles = 0;
    int64_t macs = 0;
    int64_t stab_reads = 0;
    int64_t stab_writes = 0;
    int64_t birrd_switch_hops = 0;
    /** Distinct planned layers of the direct pass: the inputs of the
     *  kernel benchmarks (BIRRD widths, StaB layouts, NEST shapes). */
    std::vector<PlanSample> plans;
};

/**
 * One workload. setup() builds everything a round needs from the seed
 * (inputs, fleet, engines and pools) and is timed as set-up; round() runs
 * the workload's operations once and is timed as work; outcome() then
 * checks what the round produced, untimed.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs and build the engines at pool size @p pool. */
    virtual void setup(int pool) = 0;

    /** Run every operation once on what setup() built (consumes it).
     *  @p tracer, when set, records spans around the module calls. */
    virtual void round(Tracer *tracer) = 0;

    /** Check the last round's results and summarize them. */
    virtual Outcome outcome(Checker &check) = 0;

    /** Counters read from the last round's own results. */
    virtual void roundCounters(LayerCounters *out) const = 0;

    /**
     * Re-run operations directly against the module APIs with one
     * shared PlanCache. The operations in @p sample (indices into the
     * last round's operations) are compared against the independent
     * reference; with @p counters set every operation runs (the traced
     * run) and the per-layer counters are filled.
     */
    virtual void direct(const std::vector<int64_t> &sample, Checker &check,
                        Tracer *tracer, LayerCounters *counters) = 0;

    /** The last round's cycle-accurate operations, grouped by kind, for
     *  the reference sample (drawn from every group). */
    virtual std::vector<std::vector<int64_t>> cycleOps() const = 0;
};

std::unique_ptr<Workload> makeServeScenarios(uint64_t seed);
std::unique_ptr<Workload> makeServeGraphFleet(uint64_t seed);
std::unique_ptr<Workload> makeOfflineExplore(uint64_t seed);

} // namespace perfbench
