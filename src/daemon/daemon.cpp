#include "daemon/daemon.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dataflow/mapping.hpp"
#include "model/graph.hpp"
#include "model/scheduler.hpp"
#include "sim/scenario.hpp"

namespace feather {
namespace daemon {

namespace {

std::string
reasonLine(const Request &req, const char *status, const std::string &reason)
{
    return strCat("{\"id\":\"", jsonEscape(req.id), "\",\"client\":\"",
                  jsonEscape(req.client), "\",\"status\":\"", status,
                  "\",\"reason\":\"", jsonEscape(reason), "\"}");
}

} // namespace

Daemon::Daemon(DaemonOptions opts) : opts_(opts)
{
    if (opts_.num_threads < 1) opts_.num_threads = 1;
    if (opts_.clock_mhz < 1) opts_.clock_mhz = 1;
    if (opts_.fleet.enabled()) {
        // The fleet *is* the virtual serving system: one virtual server
        // per device, placement by the fleet's policy.
        opts_.virt.devices = toVirtualDevices(opts_.fleet);
        opts_.virt.place = opts_.fleet.place;
        opts_.virt.vworkers = int(opts_.fleet.devices.size());
        dev_stats_.resize(opts_.fleet.devices.size());
    }
    pool_ = std::make_unique<serve::ThreadPool>(opts_.num_threads);
    start_ = std::chrono::steady_clock::now();
}

Daemon::~Daemon()
{
    // Speculative executions hold raw pointers into intake_/processed_;
    // let them land before the members go away.
    if (pool_) pool_->wait();
}

int64_t
Daemon::wallSinceStartUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

Daemon::ShapeInfo
Daemon::planShapeLocked(const Request &req, ClientStats *stats, int aw,
                        int ah)
{
    const sim::EngineMode mode = req.engine ? *req.engine : opts_.engine;
    const sim::Scenario *scenario = sim::findScenario(req.scenario);
    FEATHER_CHECK(scenario != nullptr, "scenario validated earlier");
    const int eff_aw = aw > 0 ? aw : scenario->default_aw;
    const int eff_ah = ah > 0 ? ah : scenario->default_ah;
    std::optional<sim::DataflowKind> forced;
    if (!req.dataflow.empty()) forced = sim::parseDataflow(req.dataflow);
    ShapeInfo info;
    for (const sim::ScenarioLayer &sl : scenario->layers) {
        const sim::DataflowKind kind = forced ? *forced : sl.dataflow;
        const std::string key =
            serve::PlanCache::key(mode, kind, sl.layer, eff_aw, eff_ah);
        info.keys.push_back(key);
        countPointLocked(key, stats);
        std::string err;
        const std::optional<sim::LayerPlan> plan =
            cache_.getOrPlan(mode, kind, sl.layer, eff_aw, eff_ah, &err);
        if (!plan) {
            info.error = strCat("layer ", sl.layer.name, ": ", err);
            return info;
        }
        if (&sl == &scenario->layers.front()) {
            info.in_layout = plan->in_layout;
            info.in_extents = iactExtents(sl.layer);
        }
    }
    info.feasible = true;
    return info;
}

void
Daemon::countPointLocked(const std::string &key, ClientStats *stats)
{
    // Count against the admission-time planning history, not the cache:
    // racing the pool's runtime lookups would make per-client counters
    // timing-dependent.
    if (planned_keys_.insert(key).second) {
        ++stats->cache_misses;
    } else {
        ++stats->cache_hits;
    }
}

model::SchedulerOptions
Daemon::schedulerOptions(const Request &req)
{
    model::SchedulerOptions mopts;
    mopts.aw = req.aw;
    mopts.ah = req.ah;
    // One request = one pool slot; parallelism comes from serving many
    // requests, not from fanning out inside one.
    mopts.num_threads = 1;
    mopts.engine = req.engine ? *req.engine : opts_.engine;
    mopts.shared_cache = &cache_;
    // Fleet mode: the scheduler splits the graph across the fleet's
    // devices itself (whole-graph pipeline scheduling) and ignores aw/ah.
    if (opts_.fleet.enabled()) mopts.fleet = opts_.fleet;
    return mopts;
}

std::string
Daemon::preplanLocked(Pending *p, ClientStats *stats)
{
    const Request &req = p->req;
    // Shape-independent validation first.
    if (!req.isModel()) {
        if (!sim::findScenario(req.scenario)) {
            return strCat("unknown scenario \"", req.scenario, "\"");
        }
        if (!req.dataflow.empty() && !sim::parseDataflow(req.dataflow)) {
            return strCat("unknown dataflow \"", req.dataflow, "\"");
        }
    } else {
        if (!model::findModel(req.model)) {
            return strCat("unknown model \"", req.model, "\"");
        }
        std::string err;
        if (!model::parseSchedule(req.schedule, &err)) return err;
    }

    const auto add_variant = [&](int aw, int ah) {
        auto v = std::make_unique<ExecVariant>();
        v->aw = aw;
        v->ah = ah;
        v->done_future = v->done.get_future();
        p->variants.push_back(std::move(v));
        return int(p->variants.size()) - 1;
    };

    const std::vector<DeviceSpec> &devs = opts_.fleet.devices;
    if (req.isModel()) {
        // The Scheduler decides which (layer, device, family) points the
        // graph plans, at which shape and under which cache scope;
        // enumerate() plans them through cache_, and admission counts
        // exactly those points.
        model::Scheduler sched(schedulerOptions(req));
        std::string err;
        const model::Enumeration en =
            sched.enumerate(*model::findModel(req.model), &err);
        p->dev_plan.resize(devs.size());
        for (const model::PlanPoint &pt : en.points) {
            if (pt.device < 0) {
                countPointLocked(pt.key, stats);
                continue;
            }
            const size_t d = size_t(pt.device);
            p->dev_plan[d].keys.push_back(pt.key);
            countPointLocked(serve::PlanCache::scopedKey(pt.key, devs[d].name),
                             stats);
        }
        if (!en.ok()) return err;
        add_variant(req.aw, req.ah);
        return "";
    }

    if (!opts_.fleet.enabled()) {
        const ShapeInfo info =
            planShapeLocked(req, stats, req.aw, req.ah);
        if (!info.feasible) return info.error;
        add_variant(req.aw, req.ah);
        return "";
    }

    // Fleet: plan once per *distinct* resolved shape (a request that pins
    // --aw/--ah resolves to the same shape everywhere), share the
    // resulting variant between same-shaped devices, and remember per
    // device what its execution would look like.
    p->dev_plan.resize(devs.size());
    std::map<std::pair<int, int>, std::pair<ShapeInfo, int>> shapes;
    std::string first_error;
    for (size_t d = 0; d < devs.size(); ++d) {
        const int aw = req.aw > 0 ? req.aw : devs[d].aw;
        const int ah = req.ah > 0 ? req.ah : devs[d].ah;
        auto it = shapes.find({aw, ah});
        if (it == shapes.end()) {
            ShapeInfo info = planShapeLocked(req, stats, aw, ah);
            const int variant =
                info.feasible ? add_variant(aw, ah) : -1;
            if (!info.feasible && first_error.empty()) {
                first_error = info.error;
            }
            it = shapes.emplace(std::make_pair(aw, ah),
                                std::make_pair(std::move(info), variant))
                     .first;
        }
        const ShapeInfo &info = it->second.first;
        DevicePlan &dp = p->dev_plan[d];
        dp.feasible = info.feasible;
        if (info.feasible) {
            dp.variant = it->second.second;
            dp.in_layout = info.in_layout;
            dp.in_extents = info.in_extents;
            dp.keys = info.keys;
        }
    }
    if (p->variants.empty()) {
        return strCat("no fleet device can run this request: ",
                      first_error);
    }
    return "";
}

void
Daemon::enqueue(Request req, ResponseSink sink)
{
    auto p = std::make_unique<Pending>();
    p->req = std::move(req);
    p->sink = std::move(sink);

    bool runnable = false;
    Pending *raw = p.get();
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (closed_) {
            // Late arrival racing shutdown (TCP). Answer directly — the
            // event loop may already be unreachable.
            if (p->sink) {
                p->sink(reasonLine(p->req, "rejected", "intake closed"));
            }
            return;
        }
        p->index = next_index_++;
        ++total_requests_;
        if (p->req.id.empty()) p->req.id = strCat("r", p->index);
        p->enqueue_wall_us = wallSinceStartUs();
        p->arrival_vus = p->req.arrival_us >= 0 ? p->req.arrival_us
                                                : p->enqueue_wall_us;
        ClientStats &cs = clients_[p->req.client];
        ++cs.requests;
        if (p->early_error.empty()) {
            p->early_error = preplanLocked(p.get(), &cs);
        }
        runnable = p->early_error.empty();
        intake_.push_back(std::move(p));
    }
    // Continuous batching: the simulation starts the moment the request
    // is planned, regardless of admission (decided later, in virtual
    // time). A rejected request's result is simply discarded. Fleet mode
    // runs one speculative execution per distinct device shape; the DES
    // charges the placed device's variant.
    if (runnable) {
        for (const std::unique_ptr<ExecVariant> &v : raw->variants) {
            ExecVariant *var = v.get();
            pool_->submit([this, raw, var] { execute(raw, var); });
        }
    }
    intake_cv_.notify_one();
}

void
Daemon::enqueueLine(const std::string &line, ResponseSink sink)
{
    auto p = std::make_unique<Pending>();
    std::string error;
    if (!Request::parse(line, &p->req, &error)) {
        // Attribute the failure to the line's client when that field
        // parsed before the error; "anon" otherwise.
        Request bad = p->req;
        bad.scenario.clear();
        bad.model.clear();
        Pending *raw = p.get();
        raw->early_error = strCat("bad request line: ", error);
        raw->req = std::move(bad);
        raw->sink = std::move(sink);
        std::lock_guard<std::mutex> lk(mu_);
        if (closed_) return;
        raw->index = next_index_++;
        ++total_requests_;
        if (raw->req.id.empty()) raw->req.id = strCat("r", raw->index);
        raw->enqueue_wall_us = wallSinceStartUs();
        raw->arrival_vus = raw->enqueue_wall_us;
        ++clients_[raw->req.client].requests;
        intake_.push_back(std::move(p));
        intake_cv_.notify_one();
        return;
    }
    enqueue(std::move(p->req), std::move(sink));
}

void
Daemon::closeIntake()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        closed_ = true;
    }
    intake_cv_.notify_all();
}

void
Daemon::execute(Pending *p, ExecVariant *v)
{
    const auto exec_start = std::chrono::steady_clock::now();
    ExecResult &r = v->exec;
    r.queue_wall_us = wallSinceStartUs() - p->enqueue_wall_us;
    const uint64_t seed =
        p->req.seed ? *p->req.seed
                    : Rng::deriveStream(opts_.base_seed, p->index);
    const sim::EngineMode mode =
        p->req.engine ? *p->req.engine : opts_.engine;
    try {
        if (!p->req.isModel()) {
            const sim::Scenario *scenario =
                sim::findScenario(p->req.scenario);
            FEATHER_CHECK(scenario != nullptr,
                          "pre-planned scenario vanished");
            sim::ScenarioOptions sopts;
            sopts.aw = v->aw;
            sopts.ah = v->ah;
            sopts.dataflow = p->req.dataflow;
            sopts.layout = p->req.layout;
            sopts.out_layout = p->req.out_layout;
            sopts.engine = mode;
            sopts.seed = seed;
            std::string err;
            const std::optional<sim::ScenarioRun> run =
                sim::runScenario(*scenario, sopts, &err, cache_.planFn());
            if (!run) {
                r.error = err;
            } else {
                r.ok = true;
                r.est = mode == sim::EngineMode::Analytic;
                for (const sim::RunResult &lr : run->chain.layers) {
                    r.cycles += lr.stats.cycles;
                    r.macs += lr.stats.macs;
                }
                r.checked = run->chain.checked;
                r.mismatches = run->chain.mismatches;
            }
        } else {
            const model::ModelGraph *graph = model::findModel(p->req.model);
            FEATHER_CHECK(graph != nullptr, "pre-planned model vanished");
            const std::optional<model::SchedulePolicy> policy =
                model::parseSchedule(p->req.schedule);
            FEATHER_CHECK(policy.has_value(),
                          "pre-validated schedule vanished");
            model::SchedulerOptions mopts = schedulerOptions(p->req);
            mopts.seed = seed;
            model::Scheduler sched(mopts);
            std::string err;
            const std::optional<model::Evaluation> eval =
                sched.evaluate(*graph, &err);
            std::optional<model::ScheduleResult> result;
            if (eval) result = sched.schedule(*graph, *eval, *policy, &err);
            if (!result) {
                r.error = err;
            } else {
                // The measured chain is always cycle-accurate, whatever
                // tier evaluated the candidates — so model results are
                // verified ("ok"), never estimates.
                r.ok = true;
                r.cycles = result->cycles;
                r.macs = result->macs;
                r.checked = result->checked;
                r.mismatches = result->mismatches;
                if (opts_.fleet.enabled()) {
                    // The DES pipeline: the schedule's stages, each
                    // cross-device edge priced on the stage it feeds.
                    r.stages = result->stages();
                    for (const model::Stage &stage : r.stages) {
                        if (!r.path.empty()) r.path += ">";
                        r.path += result->layers[stage.first].device_name;
                    }
                    r.first_in_layout =
                        result->layers.front().plan.in_layout;
                    r.first_in_extents =
                        iactExtents(graph->layers.front().spec);
                }
            }
        }
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    r.service_wall_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - exec_start)
            .count();
    v->done.set_value();
}

Daemon::ExecVariant *
Daemon::variantFor(Pending *p, int device) const
{
    if (device < 0 || p->staged) return p->variants.front().get();
    FEATHER_CHECK(size_t(device) < p->dev_plan.size(),
                  "placed device out of range");
    const DevicePlan &dp = p->dev_plan[size_t(device)];
    FEATHER_CHECK(dp.feasible, "placed on an infeasible device");
    return p->variants[size_t(dp.variant)].get();
}

void
Daemon::respond(Pending *p, const std::string &line)
{
    if (p->sink) p->sink(line);
}

void
Daemon::finishOne(Pending *p, int device, int64_t start_vus,
                  int64_t finish_vus)
{
    const ExecVariant *v = variantFor(p, device);
    const ExecResult &r = v->exec;
    if (device >= 0 && !p->staged) {
        // The device served this completion in virtual time whatever the
        // execution outcome; busy time includes the hand-off premium.
        // (Staged requests were accounted per stage by the stage hook.)
        DeviceStats &ds = dev_stats_[size_t(device)];
        ++ds.requests;
        ds.busy_vus += finish_vus - start_vus;
        ds.queue.record(start_vus - p->arrival_vus);
    }
    if (!r.ok) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++clients_[p->req.client].errors;
            ++failures_;
        }
        respond(p, reasonLine(p->req, "ERROR", r.error));
        return;
    }
    const int64_t queue_vus = start_vus - p->arrival_vus;
    const int64_t latency_vus = finish_vus - p->arrival_vus;
    const char *status =
        r.est ? "est" : (r.mismatches == 0 ? "ok" : "MISMATCH");
    {
        std::lock_guard<std::mutex> lk(mu_);
        ClientStats &cs = clients_[p->req.client];
        ++cs.accepted;
        cs.cycles += r.cycles;
        cs.macs += r.macs;
        cs.latency.record(latency_vus);
        cs.queue_vus += queue_vus;
        cs.service_vus += p->service_vus;
        cs.queue_wall_us += r.queue_wall_us;
        cs.service_wall_us += r.service_wall_us;
        if (r.mismatches != 0) ++failures_;
    }
    std::string extra;
    if (device >= 0) {
        // Staged requests report the whole device path ("devA>devB");
        // single-device requests report their placed device.
        const std::string &dev_name =
            p->staged && !r.path.empty()
                ? r.path
                : opts_.fleet.devices[size_t(device)].name;
        extra = strCat(",\"device\":\"", jsonEscape(dev_name),
                       "\",\"handoff_vus\":", p->handoff_vus,
                       ",\"stage_wait_vus\":", p->stage_wait_vus);
    }
    respond(p, strCat("{\"id\":\"", jsonEscape(p->req.id),
                      "\",\"client\":\"", jsonEscape(p->req.client),
                      "\",\"status\":\"", status, "\",\"cycles\":", r.cycles,
                      ",\"macs\":", r.macs, ",\"checked\":", r.checked,
                      ",\"mismatches\":", r.mismatches,
                      ",\"queue_vus\":", queue_vus,
                      ",\"service_vus\":", p->service_vus, extra,
                      ",\"latency_vus\":", latency_vus,
                      ",\"finish_vus\":", finish_vus,
                      ",\"service_wall_us\":", r.service_wall_us, "}"));
}

DaemonReport
Daemon::run()
{
    const bool fleet = opts_.fleet.enabled();
    const std::vector<DeviceSpec> &devs = opts_.fleet.devices;

    // Requests the DES admitted, indexed by DES position.
    std::vector<Pending *> des;
    VirtualScheduler vs(
        opts_.virt,
        [this, &des](size_t pos, int device) {
            Pending *p = des[pos];
            // The one synchronization point between virtual time and the
            // wall-clock pool: a request's service duration is known once
            // its speculative execution lands.
            ExecVariant *v = variantFor(p, device);
            v->done_future.wait();
            const int64_t cycles = v->exec.ok ? v->exec.cycles : 0;
            p->service_vus = std::max<int64_t>(
                1, (cycles + int64_t(opts_.clock_mhz) - 1) /
                       int64_t(opts_.clock_mhz));
            return p->service_vus;
        },
        [this, &des](size_t pos, int device, int64_t start_vus,
                     int64_t finish_vus) {
            finishOne(des[pos], device, start_vus, finish_vus);
        });
    vs.setStageHooks(
        [this, &des](size_t pos, int stage, int device) {
            (void)device;
            // Staged requests resolved their execution at arrival, so
            // this never blocks; a failed schedule serves 1 vus.
            Pending *p = des[pos];
            const ExecResult &r = p->variants.front()->exec;
            const int64_t cycles =
                r.ok && size_t(stage) < r.stages.size()
                    ? r.stages[size_t(stage)].cycles
                    : 0;
            const int64_t dur = std::max<int64_t>(
                1, (cycles + int64_t(opts_.clock_mhz) - 1) /
                       int64_t(opts_.clock_mhz));
            p->service_vus += dur;
            return dur;
        },
        [this, &des](size_t pos, int stage, int device, int64_t start_vus,
                     int64_t finish_vus) {
            // Per-device virtual accounting, one entry per stage; the
            // whole-request view stays in finishOne, which also reports
            // the waits between stages.
            Pending *p = des[pos];
            if (stage > 0) {
                p->stage_wait_vus += start_vus - p->stage_finish_vus;
            }
            p->stage_finish_vus = finish_vus;
            DeviceStats &ds = dev_stats_[size_t(device)];
            ++ds.requests;
            ds.busy_vus += finish_vus - start_vus;
            if (stage == 0) ds.queue.record(start_vus - p->arrival_vus);
            const int64_t h = p->stage_plans[size_t(stage)].handoff_vus;
            if (h > 0) {
                ++ds.handoffs;
                ds.handoff_vus += h;
            }
        });

    int64_t last_arrival = 0;
    for (;;) {
        std::unique_ptr<Pending> item;
        {
            std::unique_lock<std::mutex> lk(mu_);
            intake_cv_.wait(lk,
                            [this] { return !intake_.empty() || closed_; });
            if (intake_.empty()) break;
            item = std::move(intake_.front());
            intake_.pop_front();
        }
        Pending *p = item.get();
        processed_.push_back(std::move(item));

        if (!p->early_error.empty()) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++clients_[p->req.client].errors;
                ++failures_;
            }
            respond(p, reasonLine(p->req, "ERROR", p->early_error));
            continue;
        }
        if (p->arrival_vus < last_arrival) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++clients_[p->req.client].errors;
                ++failures_;
            }
            respond(p, reasonLine(
                           p->req, "ERROR",
                           strCat("arrival_us ", p->arrival_vus,
                                  " is earlier than a previous request's ",
                                  last_arrival, " (pinned arrivals must be"
                                  " non-decreasing)")));
            continue;
        }
        last_arrival = p->arrival_vus;

        const size_t pos = des.size();
        des.push_back(p);
        std::string reason;
        bool accepted;
        if (fleet && p->req.isModel()) {
            // Whole-graph pipeline request: the fleet scheduler pins its
            // stages, so the speculative execution must land before
            // admission. Graph requests therefore serialize on the DES
            // thread; scenario requests keep their full overlap.
            ExecVariant *v = p->variants.front().get();
            v->done_future.wait();
            const ExecResult &r = v->exec;
            p->staged = true;
            const auto prev_it = client_device_.find(p->req.client);
            const int prev =
                prev_it == client_device_.end() ? -1 : prev_it->second;
            if (r.ok) {
                for (size_t s = 0; s < r.stages.size(); ++s) {
                    StagePlan sp;
                    sp.device = r.stages[s].device;
                    int64_t cycles = 0;
                    if (s == 0) {
                        // The client's stream moving off its previous
                        // device: concordant layouts, so handoffCost
                        // charges only the inter-chip link term.
                        if (prev >= 0 && prev != sp.device) {
                            cycles = model::handoffCost(
                                false, r.first_in_layout, r.first_in_layout,
                                r.first_in_extents, model::kHandoffElemBytes,
                                opts_.fleet.link);
                        }
                    } else {
                        cycles = r.stages[s].handoff_cycles;
                    }
                    if (cycles > 0) {
                        sp.handoff_vus = std::max<int64_t>(
                            1, (cycles + int64_t(opts_.clock_mhz) - 1) /
                                   int64_t(opts_.clock_mhz));
                    }
                    p->handoff_vus += sp.handoff_vus;
                    p->stage_plans.push_back(sp);
                }
            } else {
                // Failed schedules still flow through the DES so their
                // rejection/error accounting stays deterministic: one
                // unit stage on the first device.
                p->stage_plans.push_back(StagePlan{0, 0});
            }
            accepted = vs.arriveStaged(pos, p->arrival_vus,
                                       p->req.priority, p->stage_plans,
                                       &reason);
            if (accepted) {
                p->device = p->stage_plans.back().device;
                client_device_[p->req.client] = p->device;
                // Per-device cache warmth for every device the pipeline
                // touches, in stage order.
                std::vector<char> seen(devs.size(), 0);
                for (const StagePlan &sp : p->stage_plans) {
                    if (seen[size_t(sp.device)]) continue;
                    seen[size_t(sp.device)] = 1;
                    DeviceStats &ds = dev_stats_[size_t(sp.device)];
                    for (const std::string &k :
                         p->dev_plan[size_t(sp.device)].keys) {
                        if (device_keys_
                                .insert(serve::PlanCache::scopedKey(
                                    k, devs[size_t(sp.device)].name))
                                .second) {
                            ++ds.cache_misses;
                        } else {
                            ++ds.cache_hits;
                        }
                    }
                }
            }
        } else if (fleet) {
            const size_t ndev = devs.size();
            ArrivalHints hints;
            hints.eligible.resize(ndev);
            for (size_t d = 0; d < ndev; ++d) {
                hints.eligible[d] = p->dev_plan[d].feasible ? 1 : 0;
            }
            if (opts_.fleet.place == PlacementPolicy::Affinity) {
                // Affinity score: how many of this request's planning
                // points the device has already served (device-scoped
                // keys, maintained at placement time below).
                hints.affinity.assign(ndev, 0);
                for (size_t d = 0; d < ndev; ++d) {
                    if (!p->dev_plan[d].feasible) continue;
                    for (const std::string &k : p->dev_plan[d].keys) {
                        if (device_keys_.count(serve::PlanCache::scopedKey(
                                k, devs[d].name))) {
                            ++hints.affinity[d];
                        }
                    }
                }
            }
            // Cross-device hand-off premium: moving this client's stream
            // off its previous device pays reorder + inter-chip transfer
            // (model::handoffCost), converted cycles -> vus.
            hints.handoff_vus.assign(ndev, 0);
            const auto prev_it = client_device_.find(p->req.client);
            const int prev =
                prev_it == client_device_.end() ? -1 : prev_it->second;
            if (prev >= 0) {
                for (size_t d = 0; d < ndev; ++d) {
                    if (int(d) == prev || !p->dev_plan[d].feasible) {
                        continue;
                    }
                    const DevicePlan &dst = p->dev_plan[d];
                    const Layout &src =
                        p->dev_plan[size_t(prev)].feasible
                            ? p->dev_plan[size_t(prev)].in_layout
                            : dst.in_layout;
                    const int64_t cycles = model::handoffCost(
                        false, src, dst.in_layout, dst.in_extents,
                        model::kHandoffElemBytes, opts_.fleet.link);
                    hints.handoff_vus[d] = std::max<int64_t>(
                        1, (cycles + int64_t(opts_.clock_mhz) - 1) /
                               int64_t(opts_.clock_mhz));
                }
            }
            int placed = -1;
            accepted = vs.arrive(pos, p->arrival_vus, p->req.priority,
                                 hints, &reason, &placed);
            if (accepted) {
                p->device = placed;
                p->handoff_vus = hints.handoff_vus[size_t(placed)];
                client_device_[p->req.client] = placed;
                DeviceStats &ds = dev_stats_[size_t(placed)];
                if (p->handoff_vus > 0) {
                    ++ds.handoffs;
                    ds.handoff_vus += p->handoff_vus;
                }
                // Virtual per-device cache warmth: a planning point is
                // warm only on devices that placed it before.
                for (const std::string &k :
                     p->dev_plan[size_t(placed)].keys) {
                    if (device_keys_
                            .insert(serve::PlanCache::scopedKey(
                                k, devs[size_t(placed)].name))
                            .second) {
                        ++ds.cache_misses;
                    } else {
                        ++ds.cache_hits;
                    }
                }
            }
        } else {
            accepted =
                vs.arrive(pos, p->arrival_vus, p->req.priority, &reason);
        }
        if (!accepted) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++clients_[p->req.client].rejected;
            }
            respond(p, reasonLine(p->req, "rejected", reason));
        }
    }
    vs.drain();
    // Discarded speculative executions (rejected requests) may still be
    // in flight; land them before reading the cache counters.
    pool_->wait();
    return buildReport(vs);
}

uint64_t
Daemon::failures() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return failures_;
}

DaemonReport
Daemon::buildReport(const VirtualScheduler &vs) const
{
    std::lock_guard<std::mutex> lk(mu_);
    DaemonReport rep;
    rep.base_seed = opts_.base_seed;
    rep.vworkers = opts_.virt.vworkers;
    rep.clock_mhz = opts_.clock_mhz;
    rep.engine = sim::toString(opts_.engine);

    LatencyHistogram all;
    for (const auto &[name, cs] : clients_) {
        ClientRow row;
        row.client = name;
        row.requests = cs.requests;
        row.accepted = cs.accepted;
        row.rejected = cs.rejected;
        row.errors = cs.errors;
        row.cache_hits = cs.cache_hits;
        row.cache_misses = cs.cache_misses;
        row.total_cycles = cs.cycles;
        row.p50_vus = cs.latency.percentile(50);
        row.p95_vus = cs.latency.percentile(95);
        row.p99_vus = cs.latency.percentile(99);
        const uint64_t n = cs.latency.count();
        row.mean_queue_vus = n ? double(cs.queue_vus) / double(n) : 0.0;
        row.mean_service_vus = n ? double(cs.service_vus) / double(n) : 0.0;
        row.queue_wall_us = cs.queue_wall_us;
        row.service_wall_us = cs.service_wall_us;
        rep.clients.push_back(std::move(row));

        rep.requests += cs.requests;
        rep.accepted += cs.accepted;
        rep.rejected += cs.rejected;
        rep.errors += cs.errors;
        rep.total_cycles += cs.cycles;
        rep.total_macs += cs.macs;
        all.merge(cs.latency);
    }
    rep.p50_vus = all.percentile(50);
    rep.p95_vus = all.percentile(95);
    rep.p99_vus = all.percentile(99);
    rep.max_vus = all.max();
    rep.makespan_vus = vs.lastFinish();
    rep.virtual_rps = rep.makespan_vus > 0
                          ? double(rep.accepted) * 1e6 /
                                double(rep.makespan_vus)
                          : 0.0;
    rep.cache = cache_.stats();
    if (opts_.fleet.enabled()) {
        rep.fleet = opts_.fleet.spec;
        rep.place = toString(opts_.fleet.place);
        for (size_t i = 0; i < dev_stats_.size(); ++i) {
            const DeviceStats &ds = dev_stats_[i];
            DeviceRow row;
            row.device = opts_.fleet.devices[i].name;
            row.capability = opts_.fleet.devices[i].capability;
            row.requests = ds.requests;
            row.busy_vus = ds.busy_vus;
            row.queue_p95_vus = ds.queue.percentile(95);
            row.cache_hits = ds.cache_hits;
            row.cache_misses = ds.cache_misses;
            row.handoffs = ds.handoffs;
            row.handoff_vus = ds.handoff_vus;
            rep.devices.push_back(std::move(row));
        }
    }
    rep.run_wall_us = wallSinceStartUs();
    return rep;
}

} // namespace daemon
} // namespace feather
