#pragma once

/**
 * @file
 * Per-layer (dataflow, layout) scheduling over a whole ModelGraph.
 *
 * The scheduler reproduces the paper's headline end-to-end experiment
 * (Fig. 12): because BIRRD makes on-chip dataflow switching cheap, the
 * per-layer *optimal* (dataflow, layout) pair can be chosen for every
 * layer of a network instead of one fixed dataflow for the whole model.
 *
 * Pipeline:
 *   1. Candidate enumeration (enumerate()) — for every layer, every
 *      dataflow family is planned via sim::planLayer through the shared
 *      serve::PlanCache; families that induce the same (mapping, layouts)
 *      collapse into one candidate. The serving daemon pre-plans model
 *      requests through this step too, so it is the one place that
 *      decides which plan points a graph looks up.
 *   2. Candidate evaluation — each unique candidate is simulated
 *      standalone (concordant layouts; on the cycle tier, a candidate whose
 *      output mismatches the reference operators fails the evaluation) in
 *      parallel on a serve::ThreadPool. Results land in pre-sized slots
 *      with per-candidate derived RNG streams, so the outcome is
 *      bit-identical at any thread count.
 *   3. Edge pricing — switching from layer i's candidate a to layer
 *      i+1's candidate b costs reorderCost(a.out_layout, b.in_layout):
 *      the BIRRD reorder cycles needed to convert the intermediate tensor
 *      between the two layouts, zero when they are concordant.
 *   4. Search — dynamic-programming shortest path over (layer, candidate)
 *      states (per-layer), a no-lookahead variant (greedy), or a single
 *      family forced everywhere (fixed:<dataflow>).
 *   5. Measurement — the chosen schedule is executed as one chain through
 *      the StaB ping-pong (layer i writes directly in layer i+1's input
 *      layout) and verified bit-exactly end-to-end; measured cycles are
 *      the ground truth the report ranks schedules by.
 *
 * Fleet mode (SchedulerOptions::fleet non-empty) generalizes the DP state
 * to (layer, device, candidate): every layer's candidates are enumerated
 * once per fleet device at that device's array shape (through the
 * device-scoped PlanCache partition), intra-device switches keep their
 * reorderCost pricing, and inter-device edges are priced by handoffCost
 * (BIRRD reorder + inter-chip link transfer). The chosen schedule splits
 * into the pipeline stages of ScheduleResult::stages() (which the daemon
 * also stages its DES pipeline from); each stage is measured as one
 * cycle-accurate chain on its device and verified bit-exactly against
 * the reference operators — the hand-off itself is priced, not replayed.
 * Two extra baselines exist only here:
 * pinned:<device> restricts the whole graph to one device (the
 * single-device placements the DP must beat), and compare() ranks the
 * primary schedule against every pinned placement. A 1-device fleet
 * reproduces the single-device path bit-exactly.
 */

#include <optional>
#include <string>
#include <vector>

#include "model/fleet.hpp"
#include "model/graph.hpp"
#include "serve/plan_cache.hpp"
#include "sim/scenario.hpp"

namespace feather {
namespace model {

// ---------------------------------------------------------------------------
// Switching-cost model
// ---------------------------------------------------------------------------

/**
 * BIRRD reorder cycles to convert a tensor of @p extents stored under
 * @p src into @p dst: zero when the layouts are identical (concordant
 * hand-off), else one read cycle per distinct source line feeding each
 * destination line (the reorder pass streams every destination line
 * through BIRRD; writes overlap with reads). An optimistic lower bound —
 * the measured chain run is the ground truth — but it prices edges
 * consistently: discordant hand-offs of big tensors cost more than small
 * ones, and concordant hand-offs are free.
 */
int64_t reorderCost(const Layout &src, const Layout &dst,
                    const Extents &extents);

/**
 * Cycles to hand a tensor of @p extents (elements of @p elem_bytes each,
 * resident under layout @p src) over to a device whose consumer wants
 * layout @p dst: zero when @p same_device (the on-chip StaB ping-pong
 * hand-off is free — the paper's headline), else the BIRRD
 * reorderCost(src, dst, extents) plus the link transfer term
 * ceil(total_bytes / link.bytes_per_cycle).
 */
int64_t handoffCost(bool same_device, const Layout &src, const Layout &dst,
                    const Extents &extents, int64_t elem_bytes,
                    const InterChipLink &link);

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

/** How to pick each layer's dataflow family (and, in fleet mode, its
 *  device). */
enum class ScheduleKind : uint8_t {
    PerLayer, ///< DP shortest path over candidates + switching costs
    Greedy,   ///< pick each layer's best given only the previous choice
    Fixed,    ///< force one family everywhere (the baseline)
    Pinned,   ///< fleet only: force every layer onto one named device
};

/** A schedule policy: the kind plus the family forced by Fixed or the
 *  device name forced by Pinned. */
struct SchedulePolicy
{
    ScheduleKind kind = ScheduleKind::PerLayer;
    sim::DataflowKind fixed = sim::DataflowKind::Canonical;
    std::string pinned; ///< Pinned: fleet device name
};

/** Parse "per-layer", "greedy", "fixed:<dataflow>" (ws|cp|wp or long
 *  names), or "pinned:<device>" (fleet mode only). */
std::optional<SchedulePolicy> parseSchedule(const std::string &name,
                                            std::string *error = nullptr);

std::string toString(const SchedulePolicy &policy);

/** One evaluated candidate of one layer. */
struct Candidate
{
    /** Families that plan to this (mapping, layouts) point; the first is
     *  the display name. */
    std::vector<sim::DataflowKind> kinds;
    sim::LayerPlan plan;
    int64_t est_cycles = 0; ///< standalone run under concordant layouts
    int64_t macs = 0;
    /** Fleet device index this candidate runs on; -1 outside fleet mode.
     *  Fleet evaluations flatten per-device candidate lists into one
     *  tagged list per layer, so the DP/greedy/fixed policies search
     *  (device, candidate) pairs without special-casing. */
    int device = -1;
};

/** One plan point step 1 looked up: a base serve::PlanCache::key,
 *  planned under the device's name as cache scope ("" and device -1
 *  outside fleet mode). */
struct PlanPoint
{
    int device = -1;
    std::string key;
};

/** Step 1's output: the candidate table before simulation, and every
 *  plan point looked up, in order — also when enumeration fails. */
struct Enumeration
{
    /** Per layer, >=1 each; empty when the graph cannot be scheduled. */
    std::vector<std::vector<Candidate>> layers;
    std::vector<PlanPoint> points;

    bool ok() const { return !layers.empty(); }
};

/** The evaluated candidate table of one graph (scheduler steps 1-3). */
struct Evaluation
{
    std::vector<std::vector<Candidate>> layers; ///< per layer, ≥1 each
    /** Pre-priced switching costs: edges[i][p][c] = reorderCost between
     *  layer i-1's candidate p and layer i's candidate c (edges[0] is
     *  empty). Computed once per graph so the DP, greedy and every
     *  compared policy index instead of re-walking the tensor. */
    std::vector<std::vector<std::vector<int64_t>>> edges;
};

/** The scheduler's choice for one layer, with measured chain stats. */
struct LayerChoice
{
    std::string layer;
    std::string op;
    sim::DataflowKind dataflow = sim::DataflowKind::Canonical;
    sim::LayerPlan plan;
    int64_t est_cycles = 0;     ///< candidate's standalone estimate
    int64_t reorder_cycles = 0; ///< edge price from the previous layer
    /** Fleet placement; -1/"" outside fleet mode. */
    int device = -1;
    std::string device_name;
    // Measured from the final chain run.
    int64_t cycles = 0;
    int64_t macs = 0;
    int64_t read_stalls = 0;
    int64_t write_stalls = 0;
};

/** One pipeline stage of a schedule: a contiguous run of layers placed
 *  on one device. */
struct Stage
{
    size_t first = 0; ///< layer range [first, last]
    size_t last = 0;
    int device = -1; ///< fleet device index; -1 outside fleet mode
    int64_t cycles = 0; ///< measured cycles of the stage's layers
    /** Price of the cross-device edge feeding this stage (0 for the
     *  first stage). */
    int64_t handoff_cycles = 0;
};

/** One scheduled + measured run of a graph. */
struct ScheduleResult
{
    std::string model;
    std::string schedule; ///< toString(policy)
    int aw = 0;
    int ah = 0;
    uint64_t seed = 0;
    std::vector<LayerChoice> layers;
    int64_t est_total = 0; ///< DP objective: sum of est + reorder cycles
    int64_t cycles = 0;    ///< measured chain total (ground truth)
    int64_t macs = 0;
    int64_t read_stalls = 0;
    int64_t write_stalls = 0;
    int64_t checked = 0; ///< final-output elements verified
    int64_t mismatches = 0;
    /** Engine tier candidate evaluation ran under. The measured chain is
     *  always cycle-accurate, so bitExact() holds either way. */
    sim::EngineMode engine = sim::EngineMode::Cycle;
    /** Wall time of the measured chain run in microseconds. The one
     *  non-deterministic report field; determinism checks zero it. */
    int64_t sim_wall_us = 0;
    /** Peak per-layer arena scratch over the measured chain. */
    int64_t arena_peak_bytes = 0;
    // Fleet-mode extras (defaults outside fleet mode).
    std::string fleet;          ///< normalized fleet spec, "" when none
    int64_t search_nodes = 0;   ///< (layer, device, candidate) states
                                ///< relaxed/scanned by the pick
    int64_t handoffs = 0;       ///< cross-device edges in the schedule
    int64_t handoff_cycles = 0; ///< summed handoffCost of those edges

    bool bitExact() const { return checked > 0 && mismatches == 0; }

    /** The pipeline stages, in layer order: the contiguous same-device
     *  runs of layers. Outside fleet mode the whole graph is one stage. */
    std::vector<Stage> stages() const;

    double
    utilization() const
    {
        const double pes = double(aw) * double(ah);
        return cycles > 0 ? double(macs) / (double(cycles) * pes) : 0.0;
    }
};

/** A set of schedules of one graph, ranked against the fixed baselines. */
struct ScheduleComparison
{
    std::vector<ScheduleResult> schedules; ///< primary first
    serve::PlanCache::Stats cache;

    const ScheduleResult &primary() const { return schedules.front(); }

    /** Index of the cheapest fixed:* schedule (measured cycles); -1 when
     *  no fixed schedule is present. */
    int bestFixed() const;

    /** best-fixed cycles / primary cycles (0 when unavailable). */
    double speedupVsBestFixed() const;
};

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/** Engine knobs. */
struct SchedulerOptions
{
    int aw = 0; ///< <= 0 picks the graph default
    int ah = 0;
    int num_threads = 1;  ///< candidate-evaluation pool size
    uint64_t seed = 2024; ///< base seed for inputs
    /** Engine tier for candidate enumeration/evaluation (steps 1-2).
     *  Analytic prunes the candidate table without per-element replay;
     *  the final measured chain (step 5) always runs cycle-accurate. */
    sim::EngineMode engine = sim::EngineMode::Cycle;
    /** Plan through this cache instead of the scheduler's own — the
     *  serving daemon injects its warm, shared cache here so model
     *  requests reuse (and contribute) plans across the whole run. The
     *  cache must outlive the Scheduler; nullptr keeps the private one. */
    serve::PlanCache *shared_cache = nullptr;
    /** Non-empty switches on fleet mode: candidates are enumerated per
     *  device at that device's array shape (aw/ah above are ignored),
     *  inter-device edges are priced by handoffCost, and the schedule is
     *  measured stage by stage (ScheduleResult::stages()). */
    FleetSpec fleet;
};

/** Per-layer dataflow/layout scheduler over ModelGraphs. */
class Scheduler
{
  public:
    explicit Scheduler(SchedulerOptions opts = {});

    /** Step 1: plan every (layer, device, family) point through the
     *  cache and collapse each layer's points into candidates. A failed
     *  enumeration (ok() false) sets @p error: the graph or array is
     *  invalid, or some layer has no feasible mapping. */
    Enumeration enumerate(const ModelGraph &graph,
                          std::string *error = nullptr);

    /** Steps 1-3: enumerate(), simulate every unique candidate in
     *  parallel, and price every layer-to-layer edge. nullopt with
     *  @p error set when enumeration or a candidate run fails (on the
     *  cycle tier, an output mismatch is a failure). Candidate cycles
     *  and MACs depend only on (layer, plan), never on the seed. */
    std::optional<Evaluation> evaluate(const ModelGraph &graph,
                                       std::string *error = nullptr);

    /** Steps 3-5: pick the schedule under @p policy and run it as one
     *  measured, bit-exact chain. */
    std::optional<ScheduleResult> schedule(const ModelGraph &graph,
                                           const Evaluation &eval,
                                           const SchedulePolicy &policy,
                                           std::string *error = nullptr);

    /** evaluate() once, then schedule @p primary plus the standard
     *  baselines (greedy and every fixed family, deduplicated). */
    std::optional<ScheduleComparison>
    compare(const ModelGraph &graph, const SchedulePolicy &primary,
            std::string *error = nullptr);

    /** The cache in use: opts.shared_cache when set, else the private
     *  per-scheduler one. */
    serve::PlanCache &
    cache()
    {
        return opts_.shared_cache ? *opts_.shared_cache : cache_;
    }
    const SchedulerOptions &options() const { return opts_; }

  private:
    int resolvedAw(const ModelGraph &graph) const;
    int resolvedAh(const ModelGraph &graph) const;

    /** The arrays @p graph runs on, resolved once per graph: the fleet's
     *  devices, or outside fleet mode one unnamed device (cache scope "")
     *  at the resolved shape. Index with max(device, 0). */
    std::vector<FleetDevice> targets(const ModelGraph &graph) const;

    /** Steps 3+4: one candidate index per layer under @p policy.
     *  @p search_nodes counts the states scanned/relaxed by the pick. */
    bool pickCandidates(const ModelGraph &graph, const Evaluation &eval,
                        const SchedulePolicy &policy,
                        std::vector<size_t> *picks, int64_t *search_nodes,
                        std::string *error);

    /** Result skeleton (choices, estimates, edge prices) for @p picks. */
    ScheduleResult assemble(const ModelGraph &graph, const Evaluation &eval,
                            const SchedulePolicy &policy,
                            const std::vector<size_t> &picks) const;

    /** Step 5: run @p result's schedule as one verified chain and fill
     *  the measured fields. */
    bool measure(const ModelGraph &graph, ScheduleResult *result,
                 std::string *error);

    SchedulerOptions opts_;
    serve::PlanCache cache_;
};

} // namespace model
} // namespace feather
