/**
 * @file
 * feather_perfbench: one seeded workload, timed or traced.
 *
 *   feather_perfbench --workload serve_graph_fleet|serve_scenarios|
 *                     offline_explore --seed N --seconds S --trace 0|1
 *                     [--out-dir DIR]
 *
 * --trace 0 (the timed run) repeats whole rounds of the workload for S
 * seconds and prints the end-to-end metrics. --trace 1 (the traced run)
 * runs one untraced and one traced round, then sends every operation
 * directly against the module APIs, once untraced and once with spans,
 * runs the kernel benchmarks, and prints the per-layer metrics; its spans
 * go to DIR as Chrome trace-event JSON. Both runs check every operation's
 * properties, compare a seeded sample against the independent reference,
 * and require every round, and a round at pool size 1, to produce
 * bit-identical simulated and virtual results. The last line of stdout
 * is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * Exit status: 0 on a correct run, 1 on a failed check, 2 on usage errors.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <thread>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "kernels.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using feather::Rng;
using feather::strCat;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 0) return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/** Median and tail of the per-operation virtual latencies: the tail is
 *  the highest percentile with at least ten samples beyond it. */
void
latencyMetrics(const Outcome &o, std::vector<Metric> *out)
{
    std::vector<int64_t> v = o.vlat_vus;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const double p50 = n == 0 ? 0.0
                       : n % 2 ? double(v[n / 2])
                               : 0.5 * double(v[n / 2 - 1] + v[n / 2]);
    out->push_back({"vlat_p50_us", "vus", p50});
    out->push_back({"vlat_tail_us", "vus", n > 10 ? double(v[n - 11]) : 0.0});
}

/** Reference sample: up to four operations from every group. */
std::vector<int64_t>
drawSample(const Workload &w, uint64_t seed)
{
    Rng rng(Rng::deriveStream(seed, 7));
    std::vector<int64_t> sample;
    for (std::vector<int64_t> group : w.cycleOps()) {
        for (int k = 0; k < 4 && !group.empty(); ++k) {
            const size_t at = rng.below(group.size());
            sample.push_back(group[at]);
            group.erase(group.begin() + long(at));
        }
    }
    return sample;
}

void
compareOutcomes(const Outcome &want, const Outcome &got,
                const std::string &what, Checker &check)
{
    check.expect(got.digest == want.digest && got.attempted == want.attempted &&
                     got.failed == want.failed,
                 what + " differs from the first round's results");
}

void
printResult(const Checker &check, const Outcome &o,
            const std::vector<Metric> &metrics)
{
    std::cerr << o.attempted << " operations, " << o.failed
              << " failed on known faults (" << o.mac_faults
              << " MAC counts, " << o.bound_faults
              << " analytic estimates beyond the bound)\n";
    for (const std::string &f : check.failures()) {
        std::cerr << "FAILED CHECK: " << f << "\n";
    }
    if (check.count() > int64_t(check.failures().size())) {
        std::cerr << "... " << check.count() << " failed checks in all\n";
    }
    for (const Metric &m : metrics) {
        std::fprintf(stderr, "  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    }
    std::string json = strCat("{\"correct\": ", check.ok() ? "true" : "false",
                              ", \"attempted\": ", o.attempted,
                              ", \"failed\": ", o.failed,
                              ", \"metrics\": {");
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        json += strCat(i ? ", " : "", "\"", metrics[i].name,
                       "\": {\"value\": ", value, ", \"unit\": \"",
                       metrics[i].unit, "\"}");
    }
    std::cout << json << "}}" << std::endl;
}

/** Pool size 1 must reproduce the full-pool round bit for bit. */
void
poolOneRound(Workload &w, const Outcome &first, Checker &check)
{
    w.setup(1);
    w.round(nullptr);
    compareOutcomes(first, w.outcome(check), "the round at pool size 1",
                    check);
}

int
timedRun(Workload &w, const RunConfig &cfg)
{
    constexpr int kSetupsPerRound = 5;
    constexpr size_t kMinRounds = 3;
    Checker check;
    std::vector<double> setups;
    std::vector<double> rates;
    Outcome first;
    const Clock::time_point start = Clock::now();
    while (rates.size() < kMinRounds || secondsSince(start) < cfg.seconds) {
        // Set-up is short next to a round: time a burst of set-ups before
        // every round (the round uses the last) and report the median.
        for (int k = 0; k < kSetupsPerRound; ++k) {
            const Clock::time_point s = Clock::now();
            w.setup(cfg.pool);
            setups.push_back(secondsSince(s));
        }
        const Clock::time_point r = Clock::now();
        w.round(nullptr);
        const double dt = secondsSince(r);
        const Outcome o = w.outcome(check);
        rates.push_back(double(o.attempted) / dt);
        if (rates.size() == 1) {
            first = o;
        } else {
            compareOutcomes(first, o, strCat("round ", rates.size()), check);
        }
    }
    const double rss = peakRssMb();
    std::cerr << cfg.workload << ": " << first.vlat_vus.size()
              << " latency samples; " << rates.size() << " rounds of "
              << first.attempted << " operations at";
    for (double r : rates) std::cerr << " " << r;
    std::cerr << " per second\n";

    poolOneRound(w, first, check);
    w.direct(drawSample(w, cfg.seed), check, nullptr, nullptr);

    std::vector<Metric> metrics = {
        {"setup_s", "s", median(setups)},
        {"ops_per_s", "1/s", median(rates)},
        {"peak_rss_mb", "MB", rss},
        {"sim_cycles", "cycles", double(first.sim_cycles)},
    };
    latencyMetrics(first, &metrics);
    printResult(check, first, metrics);
    return check.ok() ? 0 : 1;
}

int
tracedRun(Workload &w, const RunConfig &cfg)
{
    Checker check;
    w.setup(cfg.pool);
    w.round(nullptr);
    const Outcome first = w.outcome(check);

    Tracer tracer;
    w.setup(cfg.pool);
    w.round(&tracer);
    compareOutcomes(first, w.outcome(check), "the traced round", check);
    LayerCounters c;
    w.roundCounters(&c);

    poolOneRound(w, first, check);
    // The direct pass carries almost every span: time it once untraced
    // (into throw-away counters) and once traced for the overhead.
    const std::vector<int64_t> sample = drawSample(w, cfg.seed);
    LayerCounters untraced_counters = c;
    Clock::time_point t = Clock::now();
    w.direct(sample, check, nullptr, &untraced_counters);
    const double untraced_s = secondsSince(t);
    t = Clock::now();
    w.direct(sample, check, &tracer, &c);
    const double traced_s = secondsSince(t);
    const KernelCalls calls = runKernels(c.plans, cfg.seed, tracer, check);

    const auto per = [&](const char *span, double scale, int64_t calls_n) {
        return calls_n > 0 ? tracer.total(span) * scale / double(calls_n)
                           : 0.0;
    };
    const auto mean = [&](const char *span, double scale) {
        return per(span, scale, tracer.count(span));
    };
    const std::map<std::string, double> self = tracer.selfByModule();
    const auto selfOf = [&](const char *m) {
        const auto it = self.find(m);
        return it == self.end() ? 0.0 : it->second;
    };
    const double repeat_share =
        c.evaluations ? double(c.repeat_evaluations) / double(c.evaluations)
                      : 0.0;
    const int64_t lookups = c.plan_hits + c.plan_misses;
    std::vector<Metric> m = {
        {"daemon.enqueue_us", "us", mean("daemon.enqueue", 1e6)},
        {"daemon.drain_s", "s", tracer.total("daemon.run")},
        {"daemon.vqueue_us", "vus", c.vqueue_vus},
        {"daemon.vservice_us", "vus", c.vservice_vus},
        {"daemon.handoffs", "count", double(c.handoffs)},
        {"daemon.handoff_vus", "vus", double(c.handoff_vus)},
        {"daemon.busy_vus_max", "vus", double(c.busy_vus_max)},
        {"daemon.stage_wait_vus", "vus", double(c.stage_wait_vus)},
        {"daemon.self_s", "s", selfOf("daemon")},
        {"serve.plan_cache_hits", "count", double(c.plan_hits)},
        {"serve.plan_cache_misses", "count", double(c.plan_misses)},
        {"serve.plan_repeat_share", "ratio",
         lookups ? double(c.plan_hits) / double(lookups) : 0.0},
        {"serve.batch_run_ms", "ms", mean("serve.batch_run", 1e3)},
        {"serve.self_s", "s", selfOf("serve")},
        {"model.evaluate_ms", "ms", mean("model.evaluate", 1e3)},
        {"model.schedule_ms", "ms", mean("model.schedule", 1e3)},
        {"model.candidates", "count", double(c.candidates)},
        {"model.search_nodes", "count", double(c.search_nodes)},
        {"model.repeat_evaluations", "count", double(c.repeat_evaluations)},
        {"model.repeat_share", "ratio", repeat_share},
        {"model.reorder_cycles", "cycles", double(c.reorder_cycles)},
        {"model.handoff_cycles", "cycles", double(c.handoff_cycles)},
        {"model.self_s", "s", selfOf("model")},
        {"sim.plan_layer_us", "us", mean("sim.plan_layer", 1e6)},
        {"sim.run_layer_cycle_ms", "ms", mean("sim.run_layer_cycle", 1e3)},
        {"sim.run_chain_ms", "ms", mean("sim.run_chain", 1e3)},
        {"sim.run_layer_analytic_us", "us",
         mean("sim.run_layer_analytic", 1e6)},
        {"sim.cycle_runs", "count", double(c.cycle_runs)},
        {"sim.analytic_runs", "count", double(c.analytic_runs)},
        {"sim.analytic_err_max", "ratio", c.analytic_err_max},
        {"sim.self_s", "s", selfOf("sim")},
        {"feather.compute_cycles", "cycles", double(c.compute_cycles)},
        {"feather.fill_cycles", "cycles", double(c.fill_cycles)},
        {"feather.weight_load_cycles", "cycles",
         double(c.weight_load_cycles)},
        {"feather.read_stall_cycles", "cycles", double(c.read_stall_cycles)},
        {"feather.write_stall_cycles", "cycles",
         double(c.write_stall_cycles)},
        {"feather.macs", "count", double(c.macs)},
        {"buffer.stab_reads", "count", double(c.stab_reads)},
        {"buffer.stab_writes", "count", double(c.stab_writes)},
        {"noc.birrd_switch_hops", "count", double(c.birrd_switch_hops)},
        {"noc.route_us", "us", per("noc.route", 1e6, calls.route)},
        {"noc.evaluate_ns", "ns", per("noc.evaluate", 1e9, calls.evaluate)},
        {"noc.self_s", "s", selfOf("noc")},
        {"layout.addr_of_ns", "ns", per("layout.addr_of", 1e9, calls.addr_of)},
        {"layout.self_s", "s", selfOf("layout")},
        {"nest.row_emission_us", "us",
         per("nest.row_emission", 1e6, calls.row_emission)},
        {"nest.self_s", "s", selfOf("nest")},
        {"trace.spans", "count", double(tracer.size())},
        {"trace.overhead_pct", "%",
         100.0 * (traced_s - untraced_s) / untraced_s},
    };

    const std::string path =
        strCat(cfg.out_dir, "/spans-", cfg.workload, "-", cfg.seed, ".json");
    if (!tracer.write(path)) {
        std::cerr << "cannot write spans to " << path << "\n";
    } else {
        std::cerr << tracer.size() << " spans written to " << path << "\n";
    }
    printResult(check, first, m);
    return check.ok() ? 0 : 1;
}

int
usage(const std::string &why)
{
    std::cerr << "feather_perfbench: " << why
              << "\nusage: feather_perfbench --workload serve_graph_fleet|"
                 "serve_scenarios|offline_explore --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n";
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig cfg;
    cfg.out_dir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage("flag " + flag + " needs a value");
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            cfg.workload = value;
        } else if (flag == "--seed") {
            cfg.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            cfg.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            cfg.trace = value == "1";
            if (value != "0" && value != "1") return usage("--trace is 0 or 1");
        } else if (flag == "--out-dir") {
            cfg.out_dir = value;
        } else {
            return usage("unknown flag " + flag);
        }
        if (end && *end != '\0') return usage("bad number for " + flag);
    }
    if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
    const unsigned hw = std::thread::hardware_concurrency();
    cfg.pool = int(std::min(4u, std::max(1u, hw)));

    std::unique_ptr<Workload> w;
    if (cfg.workload == "serve_scenarios") {
        w = makeServeScenarios(cfg.seed);
    } else if (cfg.workload == "serve_graph_fleet") {
        w = makeServeGraphFleet(cfg.seed);
    } else if (cfg.workload == "offline_explore") {
        w = makeOfflineExplore(cfg.seed);
    } else {
        return usage("unknown workload '" + cfg.workload + "'");
    }
    return cfg.trace ? tracedRun(*w, cfg) : timedRun(*w, cfg);
}
