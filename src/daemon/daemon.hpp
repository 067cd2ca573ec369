#pragma once

/**
 * @file
 * The long-running serving daemon: a persistent event loop with
 * continuous batching, admission control and a warm shared plan cache.
 *
 * Lifecycle:
 *   - Frontend threads (stdin reader, TCP connections, the load
 *     generator, a trace replayer) call enqueue()/enqueueLine() as
 *     requests arrive. Enqueue validates the request, *pre-plans* it
 *     through the shared PlanCache (attributing per-client hits/misses
 *     under the intake lock, so attribution is deterministic), and
 *     immediately submits its simulation to the wall-clock thread pool —
 *     speculative, continuous execution with no wave barrier. Model
 *     requests are pre-planned through model::Scheduler::enumerate, so
 *     admission warms exactly the plan points their execution looks up.
 *   - run() — the event loop, on the caller's thread — consumes requests
 *     in intake order and feeds their arrivals to the VirtualScheduler,
 *     which decides admission and virtual timing. Responses (one JSON
 *     line each) are emitted from this single thread, in deterministic
 *     order for pinned-arrival request streams.
 *   - closeIntake() (EOF / shutdown control line) lets run() drain and
 *     return the final DaemonReport.
 *
 * Determinism: for a request stream with pinned arrival_us values, every
 * response and every report field other than `*_wall_us` is bit-identical
 * at any pool size, because all serving decisions happen in virtual time
 * on the DES thread and each request's simulation draws from its own
 * derived RNG stream (Rng::deriveStream(base_seed, intake_index)).
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/histogram.hpp"
#include "daemon/fleet.hpp"
#include "daemon/report.hpp"
#include "daemon/request.hpp"
#include "daemon/vclock.hpp"
#include "model/scheduler.hpp"
#include "serve/plan_cache.hpp"
#include "serve/thread_pool.hpp"

namespace feather {
namespace daemon {

/** Daemon-wide knobs. */
struct DaemonOptions
{
    /** Wall-clock worker pool size (`--jobs N`); affects throughput and
     *  `*_wall_us` fields only, never results. */
    int num_threads = 1;
    uint64_t base_seed = 2024; ///< stream base for per-request seeds
    /** Default engine tier for requests that do not pin one. */
    sim::EngineMode engine = sim::EngineMode::Cycle;
    /** Virtual serving system (vworkers, queue depth, quotas). */
    VirtualConfig virt;
    /** Virtual clock: service_vus = ceil(cycles / clock_mhz). */
    uint64_t clock_mhz = 1000;
    /** Heterogeneous fleet (--fleet): when enabled, each virtual server
     *  is a distinct named device, requests are placed by fleet.place,
     *  and cross-device hand-offs are priced into service time. Overrides
     *  virt.vworkers/virt.devices. */
    FleetConfig fleet;
};

/** Where a request's response line goes (per-request: TCP connections
 *  each bring their own sink). Called only from the run() thread. */
using ResponseSink = std::function<void(const std::string &line)>;

/** Persistent serving daemon over the batch simulation engine. */
class Daemon
{
  public:
    explicit Daemon(DaemonOptions opts = {});
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Parse @p line and enqueue it; unparsable lines become error
     *  responses attributed to client "_invalid" (or the line's client
     *  when that field parsed before the failure). */
    void enqueueLine(const std::string &line, ResponseSink sink);

    /** Enqueue an already-parsed request. */
    void enqueue(Request req, ResponseSink sink);

    /** No further requests; run() returns once the queue drains. */
    void closeIntake();

    /**
     * The event loop: processes intake until closeIntake() and every
     * request has been answered, then returns the final report. Call
     * exactly once, from one thread (enqueue is safe concurrently).
     */
    DaemonReport run();

    /** Requests that failed (parse, validation, execution, mismatch) —
     *  admission rejections are serving behavior, not failures. */
    uint64_t failures() const;

    serve::PlanCache &cache() { return cache_; }
    const DaemonOptions &options() const { return opts_; }

  private:
    /** Outcome of one speculative execution (filled on a pool thread). */
    struct ExecResult
    {
        bool ok = false;
        std::string error;
        bool est = false; ///< analytic scenario run: nothing to verify
        int64_t cycles = 0;
        int64_t macs = 0;
        int64_t checked = 0;
        int64_t mismatches = 0;
        int64_t queue_wall_us = 0;   ///< enqueue -> execution start
        int64_t service_wall_us = 0; ///< execution duration
        // Graph-over-fleet requests: the pipeline the DES will stage.
        std::vector<model::Stage> stages;
        std::string path;        ///< "devA>devB" device chain
        Layout first_in_layout;  ///< first layer's chosen input layout
        Extents first_in_extents;
    };

    /** One speculative execution at one resolved array shape. Fleet mode
     *  runs a request once per *distinct* device shape; the DES then
     *  charges the placed device's variant. Homogeneous runs have exactly
     *  one variant. */
    struct ExecVariant
    {
        int aw = 0; ///< shape override passed to execution (0 = default)
        int ah = 0;
        std::promise<void> done;
        std::future<void> done_future;
        ExecResult exec; ///< written by the pool task before done
    };

    /** What one fleet device would do with one request (filled at
     *  admission time, on the intake path, under mu_). Model requests
     *  fill only keys: their stages are pinned, never placed. */
    struct DevicePlan
    {
        bool feasible = false;
        int variant = 0;    ///< index into Pending::variants
        Layout in_layout;   ///< first layer's planned input layout
        Extents in_extents; ///< first layer's input tensor extents
        std::vector<std::string> keys; ///< base plan keys at this shape
    };

    /** One request in flight, owned by the daemon until run() returns. */
    struct Pending
    {
        Request req;
        ResponseSink sink;
        size_t index = 0;       ///< intake order (seed stream index)
        int64_t arrival_vus = 0;
        int64_t enqueue_wall_us = 0;
        std::string early_error; ///< parse/validation error; skips the DES
        std::vector<std::unique_ptr<ExecVariant>> variants;
        std::vector<DevicePlan> dev_plan; ///< fleet mode: one per device
        int64_t service_vus = 0;
        int device = -1;         ///< placed device (fleet mode)
        int64_t handoff_vus = 0; ///< cross-device hand-off premium paid
        /** Graph-over-fleet request: ran as a staged DES pipeline
         *  (per-stage device accounting happens in the stage hook, and
         *  the response's device field carries the whole path). */
        bool staged = false;
        std::vector<StagePlan> stage_plans;
        int64_t stage_finish_vus = 0; ///< last finished stage (stage hook)
        /** Summed waits between stages: start_k - finish_{k-1}, k >= 1. */
        int64_t stage_wait_vus = 0;
    };

    /** Per-client accounting, folded into ClientRows at report time. */
    struct ClientStats
    {
        uint64_t requests = 0;
        uint64_t accepted = 0;
        uint64_t rejected = 0;
        uint64_t errors = 0;
        uint64_t cache_hits = 0;
        uint64_t cache_misses = 0;
        int64_t cycles = 0;
        int64_t macs = 0;
        LatencyHistogram latency;
        int64_t queue_vus = 0;
        int64_t service_vus = 0;
        int64_t queue_wall_us = 0;
        int64_t service_wall_us = 0;
    };

    /** Per-device virtual bookkeeping (fleet mode; run() thread). */
    struct DeviceStats
    {
        uint64_t requests = 0;
        int64_t busy_vus = 0;
        LatencyHistogram queue;
        uint64_t cache_hits = 0;
        uint64_t cache_misses = 0;
        uint64_t handoffs = 0;
        int64_t handoff_vus = 0;
    };

    /** Outcome of planning a scenario request at one resolved shape. */
    struct ShapeInfo
    {
        bool feasible = false;
        std::string error;  ///< why this shape cannot run
        Layout in_layout;   ///< first layer's planned input layout
        Extents in_extents;
        std::vector<std::string> keys; ///< base plan keys at this shape
    };

    int64_t wallSinceStartUs() const;

    /**
     * Validate @p p->req and warm the plan cache with every planning
     * point its execution will look up, attributing hits/misses to
     * @p stats. Runs under mu_ (sequential in intake order =>
     * deterministic attribution). Model requests plan through
     * model::Scheduler::enumerate (filling p->dev_plan keys in fleet
     * mode) and get one ExecVariant. Fleet-mode scenario requests plan
     * once per distinct device shape, fill p->dev_plan, and get one
     * ExecVariant per feasible shape. Returns a non-empty reason when the
     * request can never run (unknown workload, bad override, infeasible
     * mapping on every device).
     */
    std::string preplanLocked(Pending *p, ClientStats *stats);

    /** Plan every layer of scenario @p req at one shape (under mu_). */
    ShapeInfo planShapeLocked(const Request &req, ClientStats *stats,
                              int aw, int ah);

    /** Count one admission-time plan point (a scoped cache key) as a
     *  hit or a miss of @p stats (under mu_). */
    void countPointLocked(const std::string &key, ClientStats *stats);

    /** How model request @p req is scheduled, shared by admission and
     *  execution: the shared cache, the engine, and aw/ah or the fleet. */
    model::SchedulerOptions schedulerOptions(const Request &req);

    /** The speculative execution body (pool thread). */
    void execute(Pending *p, ExecVariant *v);

    /** The variant the DES charges when @p p runs on @p device (staged
     *  requests have one, whatever their devices). */
    ExecVariant *variantFor(Pending *p, int device) const;

    void respond(Pending *p, const std::string &line);

    /** Event-loop helpers (run() thread). */
    void finishOne(Pending *p, int device, int64_t start_vus,
                   int64_t finish_vus);
    DaemonReport buildReport(const VirtualScheduler &vs) const;

    DaemonOptions opts_;
    serve::PlanCache cache_;
    std::unique_ptr<serve::ThreadPool> pool_;
    std::chrono::steady_clock::time_point start_;

    mutable std::mutex mu_;
    std::condition_variable intake_cv_;
    std::deque<std::unique_ptr<Pending>> intake_;
    std::vector<std::unique_ptr<Pending>> processed_; ///< run()-owned
    bool closed_ = false;
    size_t next_index_ = 0;
    /** Keys already planned at admission time: replicates the cache's
     *  own hit/miss behavior without racing the pool's runtime lookups,
     *  keeping per-client counters deterministic. */
    std::unordered_set<std::string> planned_keys_;
    std::map<std::string, ClientStats> clients_;
    uint64_t failures_ = 0;
    uint64_t total_requests_ = 0;

    // Fleet-mode placement state, touched only by the run() thread.
    std::vector<DeviceStats> dev_stats_;          ///< fleet order
    std::unordered_set<std::string> device_keys_; ///< device-scoped keys
    std::map<std::string, int> client_device_;    ///< last placed device
};

} // namespace daemon
} // namespace feather
