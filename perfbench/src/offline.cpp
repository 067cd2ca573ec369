/**
 * @file
 * offline_explore: the feather_cli offline paths, with no daemon.
 *
 *   - a serve::BatchEngine sweep of every registered scenario, on both
 *     engine tiers (the default dataflow x array grid);
 *   - pinned-layout batch jobs over every scenario, each analytic job next
 *     to its cycle twin. An analytic twin off by more than
 *     sim::kAnalyticBound is the one failure the benchmark keeps: the
 *     analytic tier over-estimates when the first layer's input layout is
 *     pinned discordant, and the jobs that show it are fixed, not seeded;
 *   - model::Scheduler::compare on every built-in graph, single-device and
 *     over the 3-device fleet, with analytic-tier candidates.
 *
 * The seed draws the input tensors (batch base seed, scheduler seed) and
 * the reference sample; the operations themselves are fixed.
 */

#include <algorithm>
#include <cmath>
#include <map>

#include "common/log.hpp"
#include "model/graph.hpp"
#include "model/scheduler.hpp"
#include "ops.hpp"
#include "serve/engine.hpp"
#include "serve/job.hpp"
#include "sim/engine.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace feather;

namespace {

/** One operation of a round: a batch job or one compared schedule. */
struct OfflineOp
{
    ScenarioOp job;   ///< batch jobs
    int cmp = -1;     ///< schedules: index into comparisons_
    int64_t cycles = 0;
    bool cycle = true;
};

class OfflineExplore : public Workload
{
  public:
    explicit OfflineExplore(uint64_t seed) : seed_(seed) {}

    void
    setup(int pool) override
    {
        pool_ = pool;
        engines_.clear();
        for (sim::EngineMode mode :
             {sim::EngineMode::Cycle, sim::EngineMode::Analytic}) {
            serve::BatchOptions bo;
            bo.num_threads = pool;
            bo.base_seed = seed_;
            bo.engine = mode;
            engines_.push_back(std::make_unique<serve::BatchEngine>(bo));
        }
        sweeps_.clear();
        for (const std::string &name : scenarioNames()) {
            serve::SweepSpec spec;
            spec.scenario = name;
            sweeps_.push_back(spec);
        }
        // The pinned-layout jobs go through the batch-file format, as
        // `feather_cli --batch` reads them.
        std::string batch;
        static const char *dataflows[] = {"", "ws", "cp", "wp"};
        for (const std::string &name : scenarioNames()) {
            for (const char *df : dataflows) {
                for (const std::string &layout :
                     inputLayouts(firstLayerGemm(name))) {
                    for (int side : {4, 8, 16}) {
                        for (const char *engine : {"analytic", "cycle"}) {
                            batch += strCat(name, *df ? " dataflow=" : "", df,
                                            " layout=", layout, " aw=", side,
                                            " ah=", side, " engine=", engine,
                                            "\n");
                        }
                    }
                }
            }
        }
        twins_.clear();
        std::string batch_err;
        FEATHER_CHECK(serve::parseBatchFile(batch, &twins_, &batch_err),
                      batch_err);
        std::string err;
        FEATHER_CHECK(model::parseFleetSpec(kFleet, &fleet_, &err), err);
        schedulers_.clear();
        graphs_.clear();
        for (const model::ModelGraph &graph : model::builtinModels()) {
            for (bool fleet : {false, true}) {
                schedulers_.push_back(std::make_unique<model::Scheduler>(
                    schedulerOptions(fleet)));
                graphs_.push_back(&graph);
            }
        }
    }

    void
    round(Tracer *tracer) override
    {
        reports_.clear();
        for (auto &engine : engines_) {
            for (const serve::SweepSpec &spec : sweeps_) {
                Scope span(tracer, "serve.batch_run");
                std::string err;
                std::optional<serve::BatchReport> rep =
                    engine->sweep(spec, nullptr, &err);
                reports_.push_back(rep ? std::move(*rep)
                                       : serve::BatchReport());
            }
        }
        {
            Scope span(tracer, "serve.batch_run");
            twin_report_ = engines_.front()->run(twins_);
        }
        comparisons_.clear();
        model::SchedulePolicy per_layer;
        per_layer.kind = model::ScheduleKind::PerLayer;
        for (size_t i = 0; i < schedulers_.size(); ++i) {
            Scope span(tracer, "model.compare");
            std::string err;
            std::optional<model::ScheduleComparison> cmp =
                schedulers_[i]->compare(*graphs_[i], per_layer, &err);
            comparisons_.push_back(cmp ? std::move(*cmp)
                                       : model::ScheduleComparison());
        }
    }

    Outcome
    outcome(Checker &check) override
    {
        Outcome o;
        ops_.clear();
        for (const serve::BatchReport &rep : reports_) {
            check.expect(!rep.jobs.empty(), "a sweep ran no jobs");
            for (const serve::JobResult &j : rep.jobs) {
                o.noteFaults(addJob(j, check, &o), false);
            }
            o.digest += strCat("cache ", rep.cache.hits, " ",
                               rep.cache.misses, "\n");
        }
        const std::vector<serve::JobResult> &tj = twin_report_.jobs;
        check.expect(tj.size() == twins_.size(), "twin jobs missing");
        err_max_ = 0.0;
        for (size_t i = 0; i + 1 < tj.size(); i += 2) {
            const bool est_macs = addJob(tj[i], check, &o);
            const bool cycle_macs = addJob(tj[i + 1], check, &o);
            const double err =
                std::abs(double(tj[i].cycles - tj[i + 1].cycles)) /
                double(std::max<int64_t>(1, tj[i + 1].cycles));
            err_max_ = std::max(err_max_, err);
            o.noteFaults(est_macs, err > sim::kAnalyticBound);
            o.noteFaults(cycle_macs, false);
        }
        for (size_t c = 0; c < comparisons_.size(); ++c) {
            const std::vector<model::ScheduleResult> &s =
                comparisons_[c].schedules;
            check.expect(!s.empty(), strCat("compare of ", graphs_[c]->name,
                                            " produced no schedules"));
            for (size_t k = 0; k < s.size(); ++k) {
                addSchedule(int(c), k, check, &o);
            }
        }
        return o;
    }

    void
    roundCounters(LayerCounters *out) const override
    {
        out->analytic_err_max = err_max_;
    }

    void
    direct(const std::vector<int64_t> &sample, Checker &check,
           Tracer *tracer, LayerCounters *counters) override
    {
        DirectRunner runner(tracer, counters);
        const auto sampled = [&](size_t i) {
            return std::find(sample.begin(), sample.end(), int64_t(i)) !=
                   sample.end();
        };
        for (size_t i = 0; i < ops_.size(); ++i) {
            const OfflineOp &op = ops_[i];
            if (op.cmp >= 0 || (!counters && !sampled(i))) continue;
            const int64_t cycles = runner.runScenario(
                op.job, int64_t(i), sampled(i) && op.cycle, check);
            check.expect(cycles == op.cycles,
                         strCat("op ", i, " (", op.job.scenario,
                                "): direct run gives ", cycles,
                                " cycles, the batch engine reported ",
                                op.cycles));
        }
        // Schedules: one fresh evaluation per comparison, then every
        // compared policy, each re-measured segment by segment.
        for (size_t c = 0; c < comparisons_.size(); ++c) {
            std::vector<size_t> idx;
            bool any = counters != nullptr;
            for (size_t i = 0; i < ops_.size(); ++i) {
                if (ops_[i].cmp != int(c)) continue;
                idx.push_back(i);
                any = any || sampled(i);
            }
            if (!any || idx.empty()) continue;
            std::vector<model::SchedulePolicy> policies;
            for (const model::ScheduleResult &r : comparisons_[c].schedules) {
                policies.push_back(*model::parseSchedule(r.schedule));
            }
            const bool fleet = c % 2 == 1;
            const std::vector<model::ScheduleResult> results =
                runner.runModel(*graphs_[c], schedulerOptions(fleet),
                                policies, int64_t(idx.front()), check);
            for (size_t k = 0; k < results.size() && k < idx.size(); ++k) {
                const size_t i = idx[k];
                check.expect(results[k].cycles == ops_[i].cycles,
                             strCat("op ", i, ": direct schedule gives ",
                                    results[k].cycles,
                                    " cycles, compare measured ",
                                    ops_[i].cycles));
                if (counters || sampled(i)) {
                    runner.measureSchedule(*graphs_[c], results[k],
                                           fleet ? fleet_ : model::FleetSpec(),
                                           seed_, int64_t(i), sampled(i),
                                           check);
                }
            }
        }
        runner.finish();
    }

    std::vector<std::vector<int64_t>>
    cycleOps() const override
    {
        std::vector<std::vector<int64_t>> groups(2);
        for (size_t i = 0; i < ops_.size(); ++i) {
            if (ops_[i].cycle) {
                groups[ops_[i].cmp >= 0 ? 1 : 0].push_back(int64_t(i));
            }
        }
        return groups;
    }

  private:
    model::SchedulerOptions
    schedulerOptions(bool fleet) const
    {
        model::SchedulerOptions opts;
        opts.num_threads = pool_;
        opts.seed = seed_;
        opts.engine = sim::EngineMode::Analytic;
        if (fleet) opts.fleet = fleet_;
        return opts;
    }

    /** Check and record one batch job; true when its reported MACs show
     *  the padded-lane fault (counted by the caller). */
    bool
    addJob(const serve::JobResult &j, Checker &check, Outcome *o)
    {
        const std::string what = "job " + j.name;
        const bool cycle = j.engine == sim::EngineMode::Cycle;
        ++o->attempted;
        check.expect(j.status() == (cycle ? "ok" : "est"),
                     what + ": status " + j.status() + " " + j.error);
        const int64_t macs = tableMacs("scenario:" + j.scenario);
        check.expect(j.cycles >= ceilDiv(macs, int64_t(j.aw) * j.ah),
                     strCat(what, ": ", j.cycles,
                            " cycles is below macs / PEs"));
        if (cycle) {
            o->sim_cycles += j.cycles;
            o->vlat_vus.push_back(cyclesToVus(j.cycles));
        }
        o->digest += strCat(j.name, " ", sim::toString(j.engine), " ",
                            j.status(), " ", j.cycles, " ", j.macs, " ",
                            j.checked, " ", j.mismatches, "\n");
        OfflineOp op;
        op.job.scenario = j.scenario;
        op.job.dataflow = j.dataflow == "auto" ? "" : j.dataflow;
        op.job.layout = j.layout;
        op.job.aw = j.aw;
        op.job.ah = j.ah;
        op.job.seed = j.seed;
        op.job.engine = j.engine;
        op.cycles = j.cycles;
        op.cycle = cycle;
        ops_.push_back(op);
        const std::string key =
            strCat(j.scenario, "|", j.dataflow, "|", j.aw, "x", j.ah, "|",
                   sim::toString(j.engine));
        auto padded = padded_.find(key);
        if (padded == padded_.end()) {
            padded = padded_.emplace(key, paddedMacs(op.job)).first;
        }
        return macFault(j.macs, macs, padded->second, what, check);
    }

    void
    addSchedule(int c, size_t k, Checker &check, Outcome *o)
    {
        const model::ScheduleComparison &cmp = comparisons_[size_t(c)];
        const model::ScheduleResult &r = cmp.schedules[k];
        const model::ScheduleResult &dp = cmp.primary();
        const std::string what =
            strCat(r.model, " ", r.schedule, c % 2 ? " (fleet)" : "");
        ++o->attempted;
        check.expect(r.bitExact(), what + ": not verified bit-exactly");
        const int64_t macs = tableMacs("model:" + r.model);
        o->noteFaults(
            macFault(r.macs, macs, paddedMacs(*graphs_[size_t(c)], r), what,
                     check),
            false);
        int64_t pes = int64_t(r.aw) * r.ah;
        if (c % 2) {
            for (const model::FleetDevice &d : fleet_.devices) {
                pes = std::max<int64_t>(pes, int64_t(d.aw) * d.ah);
            }
        }
        check.expect(r.cycles >= ceilDiv(macs, std::max<int64_t>(1, pes)),
                     strCat(what, ": ", r.cycles,
                            " cycles is below macs / PEs"));
        check.expect(dp.est_total <= r.est_total,
                     strCat(what, ": est_total ", r.est_total,
                            " beats the per-layer DP's ", dp.est_total));
        o->sim_cycles += r.cycles;
        o->vlat_vus.push_back(cyclesToVus(r.cycles));
        o->digest += strCat(what, " ", r.est_total, " ", r.cycles, " ",
                            r.macs, " ", r.search_nodes, " ", r.handoffs,
                            " ", r.handoff_cycles, " ", r.checked, " ",
                            r.mismatches);
        for (const model::LayerChoice &l : r.layers) {
            o->digest += strCat(" ", l.device, ":", sim::toString(l.dataflow),
                                ":", l.cycles);
        }
        o->digest += "\n";
        OfflineOp op;
        op.cmp = c;
        op.cycles = r.cycles;
        ops_.push_back(op);
    }

    uint64_t seed_;
    int pool_ = 1;
    model::FleetSpec fleet_;
    /** Batch engines defaulting to the cycle, then the analytic tier. */
    std::vector<std::unique_ptr<serve::BatchEngine>> engines_;
    std::vector<serve::SweepSpec> sweeps_;
    std::vector<serve::JobSpec> twins_; ///< (analytic, cycle) pairs
    std::vector<std::unique_ptr<model::Scheduler>> schedulers_;
    std::vector<const model::ModelGraph *> graphs_; ///< per scheduler

    std::vector<serve::BatchReport> reports_;
    serve::BatchReport twin_report_;
    std::vector<model::ScheduleComparison> comparisons_;
    std::vector<OfflineOp> ops_;
    double err_max_ = 0.0;
    /** Padded-lane MAC count per (scenario, dataflow, shape, tier). */
    std::map<std::string, int64_t> padded_;
};

} // namespace

std::unique_ptr<Workload>
makeOfflineExplore(uint64_t seed)
{
    return std::make_unique<OfflineExplore>(seed);
}

} // namespace perfbench
