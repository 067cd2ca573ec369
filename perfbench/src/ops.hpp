#pragma once

/**
 * @file
 * What the workloads share: the benchmark's own shape table, the
 * independent int8 reference, and the direct pass that re-runs
 * operations against the module APIs.
 */

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "model/scheduler.hpp"
#include "serve/plan_cache.hpp"
#include "sim/driver.hpp"

namespace perfbench {

/** MACs of scenario @p name ("scenario:<name>") or built-in graph
 *  ("model:<name>"), from the benchmark's own shape table; -1 if absent. */
int64_t tableMacs(const std::string &key);

/**
 * MACs a run of @p layer under @p mapping reports when the program counts
 * the padded PE lanes of partial tiles (a known fault): each reduction
 * extent rounded up to a multiple of its unroll degree and, on the
 * analytic tier (@p analytic), each output extent counted as
 * ceil(extent / degree) steps of min(extent, degree) live lanes. Extents
 * come from the layer's own shape, not from the program's counters.
 */
int64_t paddedLayerMacs(const feather::LayerSpec &layer,
                        const feather::NestMapping &mapping, bool analytic);

/** Check a reported MAC count against the exact count and the padded-lane
 *  count; any other value fails the check. True when the report shows the
 *  padded-lane fault (the caller counts the operation as failed). */
bool macFault(int64_t reported, int64_t exact, int64_t padded,
              const std::string &what, Checker &check);

/** Names of the registered scenarios the benchmark knows. */
const std::vector<std::string> &scenarioNames();

/** Layouts the benchmark pins on a scenario's first-layer input, by the
 *  input's kind (conv [C,H,W] or GEMM [M,K]). */
const std::vector<std::string> &inputLayouts(bool gemm);

/** True when the scenario's first layer is a GEMM. */
bool firstLayerGemm(const std::string &scenario);

/** The heterogeneous fleet of serve_graph_fleet and offline_explore. */
inline constexpr char kFleet[] = "feather:16x16,feather:32x32,tpu-like";

/** ceil(a / b) for positive b. */
inline int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** One scenario run, as a daemon request or a batch job describes it. */
struct ScenarioOp
{
    std::string scenario;
    std::string dataflow; ///< "" = the scenario's per-layer families
    std::string layout = "concordant";
    std::string out_layout = "concordant";
    int aw = 0; ///< 0 = scenario default
    int ah = 0;
    uint64_t seed = 0;
    feather::sim::EngineMode engine = feather::sim::EngineMode::Cycle;
};

/** Summed paddedLayerMacs of @p op's layers under the plans the program
 *  makes for them (-1 when a layer does not plan). */
int64_t paddedMacs(const ScenarioOp &op);

/** Summed paddedLayerMacs of a measured schedule (cycle tier). */
int64_t paddedMacs(const feather::model::ModelGraph &graph,
                   const feather::model::ScheduleResult &result);

/** The array shape a run of @p scenario pinned to @p aw x @p ah (0 = the
 *  scenario default) resolves to. */
std::pair<int, int> resolvedShape(const std::string &scenario, int aw, int ah);

/**
 * Naive int8 forward pass of @p steps from inputs regenerated from
 * @p seed (first layer's iActs, then each layer's weights, as the
 * simulator draws them), requantized round-half-away-from-zero; returns
 * how many elements of @p got differ (all of them on a shape mismatch).
 */
int64_t referenceMismatches(const std::vector<feather::sim::ChainStep> &steps,
                            uint64_t seed, const feather::Int8Tensor &got);

/**
 * Sends operations straight to sim / serve::PlanCache / model::Scheduler,
 * with one shared PlanCache, recording spans and per-layer counters.
 */
class DirectRunner
{
  public:
    /** @p counters may be null (sample-only reference checks). */
    DirectRunner(Tracer *tracer, LayerCounters *counters)
        : tracer_(tracer), counters_(counters)
    {
    }

    /** Plan and run @p op (cycle runs compared against the reference when
     *  @p reference); returns its total cycles, -1 after a failed check. */
    int64_t runScenario(const ScenarioOp &op, int64_t op_id, bool reference,
                        Checker &check);

    /** A fresh Scheduler on the shared cache (as the daemon builds one per
     *  request): evaluate, then schedule each of @p policies. Results come
     *  back in policy order; a failed call is a failed check. */
    std::vector<feather::model::ScheduleResult>
    runModel(const feather::model::ModelGraph &graph,
             feather::model::SchedulerOptions opts,
             const std::vector<feather::model::SchedulePolicy> &policies,
             int64_t op_id, Checker &check);

    /** Re-run @p result's segments as chains (the Fig. 12 breakdown, and
     *  the reference check when @p reference); checks every layer's
     *  cycles against the schedule's measurement. */
    void measureSchedule(const feather::model::ModelGraph &graph,
                         const feather::model::ScheduleResult &result,
                         const feather::model::FleetSpec &fleet,
                         uint64_t seed, int64_t op_id, bool reference,
                         Checker &check);

    /** Copy the shared cache's counters into the per-layer counters. */
    void finish();

  private:
    void addStats(const feather::LayerStats &s);
    void notePlan(const feather::LayerSpec &layer,
                  const feather::sim::LayerPlan &plan, int aw, int ah);
    /** Run one chain: runLayer for one cycle layer, runChain for several,
     *  per-layer analytic runLayer on the analytic tier. */
    feather::sim::ChainResult
    run(const std::vector<feather::sim::ChainStep> &steps,
        const feather::sim::RunOptions &ropts, int64_t op_id);

    Tracer *tracer_;
    LayerCounters *counters_;
    feather::serve::PlanCache cache_;
    std::set<std::string> planned_;   ///< plan keys already timed uncached
    std::set<std::string> evaluated_; ///< (graph, fleet, engine) keys
    std::set<std::string> sampled_;   ///< plan samples already kept
};

} // namespace perfbench
