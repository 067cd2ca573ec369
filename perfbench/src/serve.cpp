/**
 * @file
 * The two feather_serve workloads: a fixed sequence of requests, timed by
 * the seed, replayed through daemon::Daemon as an open loop with pinned
 * virtual arrivals.
 *
 *   serve_scenarios   single-layer-family scenario requests only, with
 *                     dataflow/layout/out_layout/aw/ah pins, on four
 *                     homogeneous vworkers. The Scheduler is bypassed and
 *                     the wide pin set makes the PlanCache miss-heavy.
 *   serve_graph_fleet two-thirds whole-graph "model" requests, one-third
 *                     scenario requests, on a 3-device fleet with
 *                     least-loaded placement. Every model request
 *                     re-evaluates a (graph, fleet, engine) the run has
 *                     already seen, so the PlanCache is hit-heavy.
 *
 * The request sequence (order, pins, priorities) is fixed; the seed draws
 * clients, input seeds and arrival gaps, so simulated totals do not depend
 * on the seed.
 */

#include <algorithm>
#include <map>

#include "common/json_min.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "daemon/daemon.hpp"
#include "model/graph.hpp"
#include "ops.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace feather;

namespace {

/** One parsed response line. */
struct Response
{
    std::string status;
    std::string device; ///< fleet mode: placed device or stage path
    int64_t cycles = 0;
    int64_t macs = 0;
    int64_t queue_vus = 0;
    int64_t service_vus = 0;
    int64_t latency_vus = 0;
    int64_t handoff_vus = 0;
};

int64_t
field(const JsonObject &obj, const char *key)
{
    int64_t v = -1;
    const JsonScalar *s = obj.find(key);
    if (s) s->asInt(&v);
    return v;
}

class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(uint64_t seed) : seed_(seed) {}

    void
    setup(int pool) override
    {
        daemon_.reset();
        // Generate the trace, then parse it back as a replay would.
        requests_.clear();
        for (const daemon::Request &r : generate()) {
            daemon::Request parsed;
            std::string err;
            FEATHER_CHECK(daemon::Request::parse(r.toJsonLine(), &parsed, &err),
                          "generated request does not parse: ", err);
            requests_.push_back(std::move(parsed));
        }
        daemon::DaemonOptions opts;
        opts.num_threads = pool;
        opts.base_seed = seed_;
        opts.clock_mhz = uint64_t(kClockMhz);
        // Admission never rejects: the queue holds the whole trace.
        opts.virt.max_queue = int(requests_.size());
        configure(&opts);
        daemon_ = std::make_unique<daemon::Daemon>(opts);
    }

    void
    round(Tracer *tracer) override
    {
        lines_.assign(requests_.size(), std::string());
        for (size_t i = 0; i < requests_.size(); ++i) {
            Scope span(tracer, "daemon.enqueue", int64_t(i));
            daemon_->enqueue(requests_[i], [this, i](const std::string &line) {
                lines_[i] = line;
            });
        }
        daemon_->closeIntake();
        {
            Scope span(tracer, "daemon.run");
            report_ = daemon_->run();
        }
        failures_ = daemon_->failures();
        daemon_.reset();
    }

    Outcome
    outcome(Checker &check) override
    {
        Outcome o;
        stage_wait_vus_ = 0;
        responses_.assign(requests_.size(), Response());
        for (size_t i = 0; i < requests_.size(); ++i) {
            const daemon::Request &req = requests_[i];
            const std::string what = strCat("request ", req.id);
            JsonObject obj;
            std::string err;
            if (!JsonObject::parse(lines_[i], &obj, &err)) {
                check.expect(false, what + ": no response (" + err + ")");
                continue;
            }
            Response &r = responses_[i];
            const JsonScalar *status = obj.find("status");
            r.status = status ? status->text : "";
            if (const JsonScalar *d = obj.find("device")) r.device = d->text;
            r.cycles = field(obj, "cycles");
            r.macs = field(obj, "macs");
            r.queue_vus = field(obj, "queue_vus");
            r.service_vus = field(obj, "service_vus");
            r.latency_vus = field(obj, "latency_vus");
            r.handoff_vus = std::max<int64_t>(0, field(obj, "handoff_vus"));

            ++o.attempted;
            check.expect(r.status == "ok",
                         what + ": status " + r.status + ": " + lines_[i]);
            const int64_t macs = tableMacs(
                req.isModel() ? "model:" + req.model
                              : "scenario:" + req.scenario);
            o.noteFaults(macFault(r.macs, macs, paddedFor(i, check), what,
                                  check),
                         false);
            check.expect(r.cycles >= ceilDiv(macs, pes(req, r.device)),
                         strCat(what, ": ", r.cycles,
                                " cycles is below macs / PEs"));
            // A fleet response charges its hand-off premium on top of the
            // service window. A multi-stage pipeline may also wait between
            // stages, which no response field reports, so only a bound
            // holds there.
            const int64_t parts = r.queue_vus + r.service_vus + r.handoff_vus;
            const bool multi_stage = r.device.find('>') != std::string::npos;
            check.expect(multi_stage ? r.latency_vus >= parts
                                     : r.latency_vus == parts,
                         strCat(what, ": latency ", r.latency_vus,
                                " against queue + service + hand-off ",
                                parts));
            if (multi_stage) stage_wait_vus_ += r.latency_vus - parts;
            check.expect(r.service_vus >= cyclesToVus(r.cycles),
                         what + ": service shorter than its cycles");
            o.sim_cycles += r.cycles;
            o.vlat_vus.push_back(r.latency_vus);
            // The response minus its one wall-clock field.
            const size_t wall = lines_[i].find(",\"service_wall_us\"");
            o.digest += lines_[i].substr(0, wall);
            o.digest += '\n';
        }
        const daemon::DaemonReport &rep = report_;
        check.expect(rep.accepted + rep.rejected + rep.errors == rep.requests,
                     "report: accepted + rejected + errors != requests");
        check.expect(rep.requests == requests_.size() && rep.rejected == 0 &&
                         rep.errors == 0 && failures_ == 0,
                     strCat("report: ", rep.requests, " requests, ",
                            rep.rejected, " rejected, ", rep.errors,
                            " errors, ", failures_, " failures"));
        o.digest += strCat("report ", rep.requests, " ", rep.accepted, " ",
                           rep.p50_vus, " ", rep.p95_vus, " ", rep.p99_vus,
                           " ", rep.max_vus, " ", rep.makespan_vus, " ",
                           rep.total_cycles, " ", rep.total_macs, " ",
                           rep.cache.hits, " ", rep.cache.misses, "\n");
        for (const daemon::DeviceRow &d : rep.devices) {
            o.digest += strCat(d.device, " ", d.requests, " ", d.busy_vus,
                               " ", d.queue_p95_vus, " ", d.cache_hits, " ",
                               d.cache_misses, " ", d.handoffs, " ",
                               d.handoff_vus, "\n");
        }
        return o;
    }

    void
    roundCounters(LayerCounters *out) const override
    {
        double queue = 0.0;
        double service = 0.0;
        for (const Response &r : responses_) {
            queue += double(r.queue_vus);
            service += double(r.service_vus);
        }
        const double n = double(std::max<size_t>(1, responses_.size()));
        out->vqueue_vus = queue / n;
        out->vservice_vus = service / n;
        out->stage_wait_vus = stage_wait_vus_;
        for (const daemon::DeviceRow &d : report_.devices) {
            out->handoffs += int64_t(d.handoffs);
            out->handoff_vus += d.handoff_vus;
            out->busy_vus_max = std::max(out->busy_vus_max, d.busy_vus);
        }
    }

    void
    direct(const std::vector<int64_t> &sample, Checker &check,
           Tracer *tracer, LayerCounters *counters) override
    {
        DirectRunner runner(tracer, counters);
        for (size_t i = 0; i < requests_.size(); ++i) {
            const bool sampled =
                std::find(sample.begin(), sample.end(), int64_t(i)) !=
                sample.end();
            if (!sampled && !counters) continue;
            const daemon::Request &req = requests_[i];
            int64_t cycles = -1;
            if (req.isModel()) {
                const model::ModelGraph *graph = model::findModel(req.model);
                model::SchedulerOptions mopts;
                mopts.num_threads = 1;
                mopts.seed = *req.seed;
                mopts.fleet = fleet_;
                const std::vector<model::ScheduleResult> results =
                    runner.runModel(*graph, mopts,
                                    {*model::parseSchedule(req.schedule)},
                                    int64_t(i), check);
                if (results.empty()) continue;
                cycles = results.front().cycles;
                runner.measureSchedule(*graph, results.front(), fleet_,
                                       *req.seed, int64_t(i), sampled, check);
            } else {
                ScenarioOp op;
                op.scenario = req.scenario;
                op.dataflow = req.dataflow;
                op.layout = req.layout;
                op.out_layout = req.out_layout;
                op.aw = req.aw;
                op.ah = req.ah;
                op.seed = *req.seed;
                cycles = runner.runScenario(op, int64_t(i), sampled, check);
            }
            check.expect(cycles == responses_[i].cycles,
                         strCat("request ", req.id, ": direct run gives ",
                                cycles, " cycles, the daemon served ",
                                responses_[i].cycles));
        }
        runner.finish();
    }

    std::vector<std::vector<int64_t>>
    cycleOps() const override
    {
        std::vector<std::vector<int64_t>> groups(2);
        for (size_t i = 0; i < requests_.size(); ++i) {
            groups[requests_[i].isModel() ? 1 : 0].push_back(int64_t(i));
        }
        if (groups[1].empty()) groups.pop_back();
        return groups;
    }

  protected:
    /** The request stream: arrival-ordered, every request seeded. */
    virtual std::vector<daemon::Request> generate() const = 0;
    /** Workload-specific daemon settings. */
    virtual void configure(daemon::DaemonOptions *opts) = 0;

    /**
     * Stamp ids, clients, input seeds and arrivals (gaps uniform in
     * [3*gap/4, 5*gap/4]) from the seed onto @p reqs, which keep their
     * order and priorities. The order is fixed on purpose: under
     * queueing, a seeded permutation of 100 requests moves the median
     * latency by a quarter from seed to seed, so the virtual metrics would
     * measure the permutation more than the program.
     */
    std::vector<daemon::Request>
    stamp(std::vector<daemon::Request> reqs, int clients,
          int64_t gap_vus) const
    {
        Rng rng(seed_);
        int64_t t = 0;
        for (size_t i = 0; i < reqs.size(); ++i) {
            daemon::Request &r = reqs[i];
            t += 3 * gap_vus / 4 +
                 int64_t(rng.below(uint64_t(gap_vus / 2) + 1));
            r.id = strCat("r", i);
            r.client = strCat("c", rng.below(uint64_t(clients)));
            r.arrival_us = t;
            r.seed = rng();
        }
        return reqs;
    }

    /**
     * MACs request @p i reports under the padded-lane fault, from the
     * plans the program makes for it: a scenario's planned layers, or the
     * chosen layers of a fresh schedule of the graph. Memoized by (graph,
     * schedule) or (scenario, pins); the first miss on a graph schedules
     * every policy the trace asks of it in one evaluation.
     */
    int64_t
    paddedFor(size_t i, Checker &check)
    {
        const daemon::Request &req = requests_[i];
        if (!req.isModel()) {
            const std::string key = strCat(req.scenario, "|", req.dataflow,
                                           "|", req.aw, "x", req.ah);
            auto it = padded_.find(key);
            if (it == padded_.end()) {
                ScenarioOp op;
                op.scenario = req.scenario;
                op.dataflow = req.dataflow;
                op.aw = req.aw;
                op.ah = req.ah;
                it = padded_.emplace(key, paddedMacs(op)).first;
            }
            return it->second;
        }
        const std::string key = req.model + "|" + req.schedule;
        if (!padded_.count(key)) {
            std::vector<model::SchedulePolicy> policies;
            std::vector<std::string> names;
            for (const daemon::Request &other : requests_) {
                if (other.model != req.model ||
                    std::find(names.begin(), names.end(), other.schedule) !=
                        names.end()) {
                    continue;
                }
                names.push_back(other.schedule);
                policies.push_back(*model::parseSchedule(other.schedule));
            }
            const model::ModelGraph *graph = model::findModel(req.model);
            model::SchedulerOptions mopts;
            mopts.num_threads = 1;
            mopts.seed = *req.seed;
            mopts.fleet = fleet_;
            DirectRunner runner(nullptr, nullptr);
            const std::vector<model::ScheduleResult> results =
                runner.runModel(*graph, mopts, policies, int64_t(i), check);
            for (size_t k = 0; k < results.size(); ++k) {
                padded_[req.model + "|" + names[k]] =
                    paddedMacs(*graph, results[k]);
            }
        }
        const auto it = padded_.find(key);
        return it == padded_.end() ? -1 : it->second;
    }

    /** PEs the request ran on: its array shape, or for a whole-graph
     *  pipeline the largest device on its stage path. */
    int64_t
    pes(const daemon::Request &req, const std::string &device) const
    {
        if (!req.isModel()) {
            const auto [aw, ah] = resolvedShape(req.scenario, req.aw, req.ah);
            return int64_t(aw) * int64_t(ah);
        }
        int64_t best = 1;
        for (const model::FleetDevice &d : fleet_.devices) {
            if ((device + ">").find(d.name + ">") != std::string::npos) {
                best = std::max<int64_t>(best, int64_t(d.aw) * d.ah);
            }
        }
        return best;
    }

    uint64_t seed_;
    model::FleetSpec fleet_; ///< empty outside fleet mode

  private:
    std::vector<daemon::Request> requests_;
    std::unique_ptr<daemon::Daemon> daemon_;
    std::vector<std::string> lines_;
    std::vector<Response> responses_;
    daemon::DaemonReport report_;
    uint64_t failures_ = 0;
    int64_t stage_wait_vus_ = 0; ///< unreported inter-stage waits
    std::map<std::string, int64_t> padded_; ///< see paddedFor()
};

class ServeScenarios : public ServeWorkload
{
  public:
    using ServeWorkload::ServeWorkload;

  protected:
    static constexpr int kRequests = 200;

    std::vector<daemon::Request>
    generate() const override
    {
        static const std::pair<int, int> shapes[] = {
            {4, 4},  {8, 4},   {8, 8},  {16, 4},
            {16, 8}, {16, 16}, {32, 8}, {32, 16},
        };
        static const char *dataflows[] = {"", "ws", "cp", "wp"};
        const std::vector<std::string> &names = scenarioNames();
        std::vector<daemon::Request> reqs;
        for (int k = 0; k < kRequests; ++k) {
            // A fixed spread of pins: scenario by k, the rest by mixing k
            // so every scenario meets every pin value.
            const int s = k % int(names.size());
            const int j = k / int(names.size());
            daemon::Request r;
            r.scenario = names[size_t(s)];
            const bool gemm = firstLayerGemm(r.scenario);
            r.dataflow = dataflows[j % 4];
            r.aw = shapes[(3 * j + s) % 8].first;
            r.ah = shapes[(3 * j + s) % 8].second;
            const std::vector<std::string> &lay = inputLayouts(gemm);
            const size_t li = size_t(j + s) % (lay.size() + 1);
            r.layout = li == lay.size() ? "concordant" : lay[li];
            r.out_layout = (j / 4 + s) % 2 ? lay.front() : "concordant";
            r.priority = (2 * j + s) % 3;
            reqs.push_back(std::move(r));
        }
        return stamp(std::move(reqs), 6, 400);
    }

    void
    configure(daemon::DaemonOptions *opts) override
    {
        opts->virt.vworkers = 4;
    }
};

class ServeGraphFleet : public ServeWorkload
{
  public:
    using ServeWorkload::ServeWorkload;

  protected:
    static constexpr int kModelRequests = 66;
    static constexpr int kScenarioRequests = 34;

    std::vector<daemon::Request>
    generate() const override
    {
        static const char *graphs[] = {"resnet_block", "mobilenet_slice",
                                       "bert_mlp"};
        static const char *schedules[] = {
            "per-layer", "greedy",  "fixed:ws",
            "fixed:cp",  "fixed:wp", "pinned:feather:16x16",
            "pinned:feather:32x32", "pinned:tpu-like",
        };
        static const int sides[] = {8, 16, 32};
        const std::vector<std::string> &names = scenarioNames();
        // Scenario requests spread evenly among the model requests.
        constexpr int kTotal = kModelRequests + kScenarioRequests;
        std::vector<daemon::Request> reqs;
        int m = 0;
        int k = 0;
        for (int i = 0; i < kTotal; ++i) {
            daemon::Request r;
            if ((i + 1) * kScenarioRequests / kTotal >
                i * kScenarioRequests / kTotal) {
                // Pinned shapes keep a scenario's cycles independent of
                // the device placement picks.
                r.scenario = names[size_t(k) % names.size()];
                r.aw = r.ah = sides[(k + k / int(names.size())) % 3];
                r.priority = (2 * k + k / int(names.size())) % 3;
                ++k;
            } else {
                r.model = graphs[m % 3];
                r.schedule = schedules[(m / 3) % 8];
                r.priority = (m + m / 3) % 3;
                ++m;
            }
            reqs.push_back(std::move(r));
        }
        return stamp(std::move(reqs), 4, 900);
    }

    void
    configure(daemon::DaemonOptions *opts) override
    {
        std::string err;
        FEATHER_CHECK(daemon::parseFleetSpec(kFleet, &opts->fleet, &err), err);
        opts->fleet.place = daemon::PlacementPolicy::LeastLoaded;
        fleet_ = opts->fleet;
    }
};

} // namespace

std::unique_ptr<Workload>
makeServeScenarios(uint64_t seed)
{
    return std::make_unique<ServeScenarios>(seed);
}

std::unique_ptr<Workload>
makeServeGraphFleet(uint64_t seed)
{
    return std::make_unique<ServeGraphFleet>(seed);
}

} // namespace perfbench
