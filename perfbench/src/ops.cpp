#include "ops.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "common/rng.hpp"
#include "dataflow/mapping.hpp"
#include "sim/scenario.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace feather;

namespace {

// MACs of one layer: every output element times its reduction length,
// padded taps included (they multiply the zero point, as the hardware
// does).
int64_t
convMacs(int64_t c, int64_t hw, int64_t m, int64_t rs, int64_t stride,
         int64_t pad)
{
    const int64_t p = (hw + 2 * pad - rs) / stride + 1;
    return m * p * p * c * rs * rs;
}

int64_t
dwMacs(int64_t c, int64_t hw, int64_t rs, int64_t stride, int64_t pad)
{
    const int64_t p = (hw + 2 * pad - rs) / stride + 1;
    return c * p * p * rs * rs;
}

int64_t
gemmMacs(int64_t m, int64_t n, int64_t k)
{
    return m * n * k;
}

const std::map<std::string, int64_t> &
shapeTable()
{
    static const std::map<std::string, int64_t> table = {
        {"scenario:quickstart_conv", convMacs(8, 8, 8, 3, 1, 1)},
        {"scenario:conv3x3", convMacs(16, 14, 16, 3, 1, 1)},
        {"scenario:conv1x1", convMacs(32, 14, 32, 1, 1, 0)},
        {"scenario:conv_window", convMacs(8, 14, 16, 3, 1, 1)},
        {"scenario:depthwise", dwMacs(8, 6, 3, 1, 1)},
        {"scenario:gemm", gemmMacs(8, 6, 32)},
        {"scenario:gemm_skewed", gemmMacs(8, 3, 12)},
        {"scenario:resnet_block", convMacs(32, 14, 8, 1, 1, 0) +
                                      convMacs(8, 14, 8, 3, 1, 1) +
                                      convMacs(8, 14, 32, 1, 1, 0)},
        {"scenario:mobilenet_bneck", convMacs(16, 14, 32, 1, 1, 0) +
                                         dwMacs(32, 14, 3, 1, 1) +
                                         convMacs(32, 14, 16, 1, 1, 0)},
        {"scenario:dw_separable",
         dwMacs(16, 14, 3, 1, 1) + convMacs(16, 14, 32, 1, 1, 0)},
        {"scenario:gemm_chain", gemmMacs(8, 16, 32) + gemmMacs(8, 8, 16) +
                                    gemmMacs(8, 4, 8)},
        {"scenario:conv_stride2", convMacs(16, 14, 32, 3, 2, 1)},
        {"model:resnet_block", convMacs(32, 14, 8, 1, 1, 0) +
                                   convMacs(8, 14, 8, 3, 1, 1) +
                                   convMacs(8, 14, 32, 1, 1, 0)},
        {"model:mobilenet_slice",
         convMacs(16, 14, 32, 1, 1, 0) + dwMacs(32, 14, 3, 1, 1) +
             convMacs(32, 14, 16, 1, 1, 0) + dwMacs(16, 14, 3, 1, 1) +
             convMacs(16, 14, 32, 1, 1, 0)},
        {"model:bert_mlp", gemmMacs(8, 32, 16) + gemmMacs(8, 16, 32)},
    };
    return table;
}

int8_t
requantizeRef(int64_t acc, float multiplier, int8_t zp)
{
    // Round half away from zero (std::round), then add the zero point and
    // saturate to int8.
    const double v = std::round(double(acc) * double(multiplier)) + zp;
    return int8_t(v < -128.0 ? -128.0 : (v > 127.0 ? 127.0 : v));
}

/** One layer of the naive reference over flat row-major tensors. */
Int8Tensor
naiveLayer(const LayerSpec &l, const Int8Tensor &x, const Int8Tensor &w,
           const LayerQuant &q)
{
    if (l.type == OpType::Gemm) {
        const int64_t m = l.gemm.m, n = l.gemm.n, k = l.gemm.k;
        Int8Tensor out({m, n});
        for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) {
                int64_t acc = 0;
                for (int64_t t = 0; t < k; ++t) {
                    acc += int64_t(x[size_t(i * k + t)] - q.iact_zp) *
                           int64_t(w[size_t(t * n + j)] - q.weight_zp);
                }
                out[size_t(i * n + j)] =
                    requantizeRef(acc, q.multiplier, q.oact_zp);
            }
        }
        return out;
    }
    const ConvShape &c = l.conv;
    const bool dw = l.type == OpType::DepthwiseConv;
    const int64_t p_out = (c.h + 2 * c.pad - c.r) / c.stride + 1;
    const int64_t q_out = (c.w + 2 * c.pad - c.s) / c.stride + 1;
    const int64_t m_out = dw ? c.c : c.m;
    Int8Tensor out({1, m_out, p_out, q_out});
    for (int64_t m = 0; m < m_out; ++m) {
        for (int64_t p = 0; p < p_out; ++p) {
            for (int64_t qq = 0; qq < q_out; ++qq) {
                int64_t acc = 0;
                const int64_t ch_lo = dw ? m : 0;
                const int64_t ch_hi = dw ? m + 1 : c.c;
                for (int64_t ch = ch_lo; ch < ch_hi; ++ch) {
                    for (int64_t r = 0; r < c.r; ++r) {
                        const int64_t ih = p * c.stride - c.pad + r;
                        if (ih < 0 || ih >= c.h) continue;
                        for (int64_t s = 0; s < c.s; ++s) {
                            const int64_t iw = qq * c.stride - c.pad + s;
                            if (iw < 0 || iw >= c.w) continue;
                            const int64_t xi = (ch * c.h + ih) * c.w + iw;
                            const int64_t wi =
                                dw ? (m * c.r + r) * c.s + s
                                   : ((m * c.c + ch) * c.r + r) * c.s + s;
                            acc += int64_t(x[size_t(xi)] - q.iact_zp) *
                                   int64_t(w[size_t(wi)] - q.weight_zp);
                        }
                    }
                }
                out[size_t((m * p_out + p) * q_out + qq)] =
                    requantizeRef(acc, q.multiplier, q.oact_zp);
            }
        }
    }
    return out;
}

} // namespace

int64_t
tableMacs(const std::string &key)
{
    const auto it = shapeTable().find(key);
    return it == shapeTable().end() ? -1 : it->second;
}

int64_t
paddedLayerMacs(const LayerSpec &layer, const NestMapping &mapping,
                bool analytic)
{
    const auto reduced = [&](Dim d, int64_t ext) {
        return ceilDiv(ext, mapping.degreeOf(d)) * mapping.degreeOf(d);
    };
    const auto output = [&](Dim d, int64_t ext) {
        const int64_t u = mapping.degreeOf(d);
        return analytic ? ceilDiv(ext, u) * std::min(ext, u) : ext;
    };
    if (layer.type == OpType::Gemm) {
        const GemmShape &g = layer.gemm;
        return output(Dim::M, g.m) * output(Dim::N, g.n) *
               reduced(Dim::K, g.k);
    }
    const ConvShape &c = layer.conv;
    const int64_t p = (c.h + 2 * c.pad - c.r) / c.stride + 1;
    const int64_t q = (c.w + 2 * c.pad - c.s) / c.stride + 1;
    const int64_t taps = reduced(Dim::R, c.r) * reduced(Dim::S, c.s);
    const int64_t pixels = output(Dim::P, p) * output(Dim::Q, q);
    if (layer.type == OpType::DepthwiseConv || c.depthwise) {
        return output(Dim::C, c.c) * pixels * taps;
    }
    return output(Dim::M, c.m) * pixels * reduced(Dim::C, c.c) * taps;
}

bool
macFault(int64_t reported, int64_t exact, int64_t padded,
         const std::string &what, Checker &check)
{
    check.expect(reported == exact || reported == padded,
                 strCat(what, ": reports ", reported, " MACs; the layers have ",
                        exact, ", or ", padded, " with padded lanes"));
    return reported != exact && reported == padded;
}

int64_t
paddedMacs(const ScenarioOp &op)
{
    const sim::Scenario *sc = sim::findScenario(op.scenario);
    if (!sc) return -1;
    const auto [aw, ah] = resolvedShape(op.scenario, op.aw, op.ah);
    std::optional<sim::DataflowKind> forced;
    if (!op.dataflow.empty()) forced = sim::parseDataflow(op.dataflow);
    int64_t macs = 0;
    for (const sim::ScenarioLayer &sl : sc->layers) {
        const std::optional<sim::LayerPlan> plan = sim::planLayer(
            forced ? *forced : sl.dataflow, sl.layer, aw, ah, nullptr,
            op.engine);
        if (!plan) return -1;
        macs += paddedLayerMacs(sl.layer, plan->mapping,
                                op.engine == sim::EngineMode::Analytic);
    }
    return macs;
}

int64_t
paddedMacs(const model::ModelGraph &graph,
           const model::ScheduleResult &result)
{
    int64_t macs = 0;
    for (size_t i = 0; i < result.layers.size(); ++i) {
        macs += paddedLayerMacs(graph.layers[i].spec,
                                result.layers[i].plan.mapping, false);
    }
    return macs;
}

const std::vector<std::string> &
scenarioNames()
{
    static const std::vector<std::string> names = {
        "quickstart_conv", "conv3x3",         "conv1x1",
        "conv_window",     "depthwise",       "gemm",
        "gemm_skewed",     "resnet_block",    "mobilenet_bneck",
        "dw_separable",    "gemm_chain",      "conv_stride2",
    };
    return names;
}

const std::vector<std::string> &
inputLayouts(bool gemm)
{
    static const std::vector<std::string> conv = {"HWC_C8", "CHW_W4",
                                                  "HWC_C4W8"};
    static const std::vector<std::string> mk = {"MK_K4", "MK_M4K8"};
    return gemm ? mk : conv;
}

bool
firstLayerGemm(const std::string &scenario)
{
    const sim::Scenario *sc = sim::findScenario(scenario);
    return sc && sc->layers.front().layer.type == OpType::Gemm;
}

std::pair<int, int>
resolvedShape(const std::string &scenario, int aw, int ah)
{
    const sim::Scenario *sc = sim::findScenario(scenario);
    return {aw > 0 ? aw : (sc ? sc->default_aw : 0),
            ah > 0 ? ah : (sc ? sc->default_ah : 0)};
}

int64_t
referenceMismatches(const std::vector<sim::ChainStep> &steps, uint64_t seed,
                    const Int8Tensor &got)
{
    Rng rng(seed);
    Int8Tensor x = sim::randomIacts(steps.front().layer, rng);
    std::vector<Int8Tensor> weights;
    for (const sim::ChainStep &s : steps) {
        weights.push_back(sim::randomWeights(s.layer, rng));
    }
    for (size_t i = 0; i < steps.size(); ++i) {
        x = naiveLayer(steps[i].layer, x, weights[i], steps[i].quant);
    }
    if (x.shape() != got.shape()) return x.numel();
    int64_t bad = 0;
    for (int64_t i = 0; i < x.numel(); ++i) {
        bad += x[size_t(i)] != got[size_t(i)] ? 1 : 0;
    }
    return bad;
}

void
DirectRunner::addStats(const LayerStats &s)
{
    if (!counters_) return;
    counters_->compute_cycles += s.compute_cycles;
    counters_->fill_cycles += s.fill_cycles;
    counters_->weight_load_cycles += s.weight_load_cycles;
    counters_->read_stall_cycles += s.read_stall_cycles;
    counters_->write_stall_cycles += s.write_stall_cycles;
    counters_->macs += s.macs;
    counters_->stab_reads += s.stab_reads;
    counters_->stab_writes += s.stab_writes;
    counters_->birrd_switch_hops += s.birrd_switch_hops;
}

void
DirectRunner::notePlan(const LayerSpec &layer, const sim::LayerPlan &plan,
                       int aw, int ah)
{
    constexpr size_t kMaxSamples = 24;
    if (!counters_ || counters_->plans.size() >= kMaxSamples) return;
    PlanSample s;
    s.extents = iactExtents(layer);
    s.layout = plan.in_layout;
    s.aw = aw;
    s.ah = ah;
    s.t1 = plan.mapping.t1();
    std::string key = s.layout.toString();
    for (int d = 0; d < kNumDims; ++d) {
        key += "," + std::to_string(s.extents[Dim(d)]);
    }
    key += strCat(",", aw, "x", ah, ",", s.t1);
    if (sampled_.insert(key).second) counters_->plans.push_back(s);
}

sim::ChainResult
DirectRunner::run(const std::vector<sim::ChainStep> &steps,
                  const sim::RunOptions &ropts, int64_t op_id)
{
    sim::ChainResult res;
    if (ropts.engine == sim::EngineMode::Analytic) {
        // The analytic chain is per-layer estimates under the chain's
        // layouts; issuing them one by one times runLayer itself.
        Layout in = *ropts.in_layout;
        for (const sim::ChainStep &s : steps) {
            sim::RunOptions o = ropts;
            o.mapping = s.mapping;
            o.in_layout = in;
            o.out_layout = s.out_layout;
            o.quant = s.quant;
            Scope span(tracer_, "sim.run_layer_analytic", op_id);
            res.layers.push_back(sim::runLayer(s.layer, o));
            in = res.layers.back().out_layout;
        }
        if (counters_) counters_->analytic_runs += int64_t(steps.size());
        return res;
    }
    if (steps.size() == 1) {
        sim::RunOptions o = ropts;
        o.mapping = steps.front().mapping;
        o.out_layout = steps.front().out_layout;
        o.quant = steps.front().quant;
        Scope span(tracer_, "sim.run_layer_cycle", op_id);
        sim::RunResult r = sim::runLayer(steps.front().layer, o);
        res.checked = r.checked;
        res.mismatches = r.mismatches;
        res.layers.push_back(std::move(r));
    } else {
        Scope span(tracer_, "sim.run_chain", op_id);
        res = sim::runChain(steps, ropts);
    }
    if (counters_) ++counters_->cycle_runs;
    for (const sim::RunResult &r : res.layers) addStats(r.stats);
    return res;
}

int64_t
DirectRunner::runScenario(const ScenarioOp &op, int64_t op_id,
                          bool reference, Checker &check)
{
    Scope span(tracer_, "bench.op", op_id);
    const std::string what = strCat("op ", op_id, " (", op.scenario, ")");
    const sim::Scenario *sc = sim::findScenario(op.scenario);
    if (!sc) {
        check.expect(false, what + ": unknown scenario");
        return -1;
    }
    const auto [aw, ah] = resolvedShape(op.scenario, op.aw, op.ah);
    std::optional<sim::DataflowKind> forced;
    if (!op.dataflow.empty()) forced = sim::parseDataflow(op.dataflow);

    std::vector<sim::LayerPlan> plans;
    for (const sim::ScenarioLayer &sl : sc->layers) {
        const sim::DataflowKind kind = forced ? *forced : sl.dataflow;
        if (planned_.insert(serve::PlanCache::key(op.engine, kind, sl.layer,
                                                  aw, ah))
                .second) {
            Scope plan_span(tracer_, "sim.plan_layer", op_id);
            (void)sim::planLayer(kind, sl.layer, aw, ah, nullptr, op.engine);
        }
        std::string err;
        std::optional<sim::LayerPlan> plan;
        {
            Scope cache_span(tracer_, "serve.plan_cache", op_id);
            plan = cache_.getOrPlan(op.engine, kind, sl.layer, aw, ah, &err);
        }
        if (!plan) {
            check.expect(false, what + ": plan failed: " + err);
            return -1;
        }
        notePlan(sl.layer, *plan, aw, ah);
        plans.push_back(std::move(*plan));
    }

    std::vector<sim::ChainStep> steps;
    for (size_t i = 0; i < plans.size(); ++i) {
        sim::ChainStep step;
        step.layer = sc->layers[i].layer;
        step.mapping = plans[i].mapping;
        step.out_layout = i + 1 < plans.size() ? plans[i + 1].in_layout
                                               : plans.back().out_layout;
        step.quant.multiplier = sc->layers[i].multiplier;
        steps.push_back(std::move(step));
    }
    sim::RunOptions ropts;
    ropts.aw = aw;
    ropts.ah = ah;
    ropts.engine = op.engine;
    ropts.seed = op.seed;
    ropts.in_layout = plans.front().in_layout;
    std::string err;
    if (op.layout != "concordant") {
        ropts.in_layout = sim::tryParseLayout(op.layout, &err);
    }
    if (op.out_layout != "concordant") {
        steps.back().out_layout = sim::tryParseLayout(op.out_layout, &err);
    }
    if (!ropts.in_layout || !steps.back().out_layout) {
        check.expect(false, what + ": layout pin: " + err);
        return -1;
    }

    const sim::ChainResult res = run(steps, ropts, op_id);
    if (op.engine == sim::EngineMode::Cycle) {
        check.expect(res.checked > 0 && res.mismatches == 0,
                     what + ": simulator's own verification failed");
        if (reference) {
            const int64_t bad = referenceMismatches(
                steps, op.seed, res.layers.back().output);
            check.expect(bad == 0,
                         strCat(what, ": ", bad,
                                " output elements differ from the "
                                "independent reference"));
        }
    }
    return res.totalCycles();
}

std::vector<model::ScheduleResult>
DirectRunner::runModel(const model::ModelGraph &graph,
                       model::SchedulerOptions opts,
                       const std::vector<model::SchedulePolicy> &policies,
                       int64_t op_id, Checker &check)
{
    Scope span(tracer_, "bench.op", op_id);
    const std::string what = strCat("op ", op_id, " (model ", graph.name, ")");
    opts.shared_cache = &cache_;
    model::Scheduler sched(opts);
    const bool repeat =
        !evaluated_
             .insert(strCat(graph.name, "|", opts.fleet.spec, "|",
                            sim::toString(opts.engine)))
             .second;
    std::string err;
    std::optional<model::Evaluation> eval;
    {
        Scope eval_span(tracer_, "model.evaluate", op_id);
        eval = sched.evaluate(graph, &err);
    }
    std::vector<model::ScheduleResult> out;
    if (!eval) {
        check.expect(false, what + ": evaluate failed: " + err);
        return out;
    }
    if (counters_) {
        ++counters_->evaluations;
        counters_->repeat_evaluations += repeat ? 1 : 0;
        for (const auto &layer : eval->layers) {
            counters_->candidates += int64_t(layer.size());
        }
    }
    for (const model::SchedulePolicy &policy : policies) {
        std::optional<model::ScheduleResult> r;
        {
            Scope sched_span(tracer_, "model.schedule", op_id);
            r = sched.schedule(graph, *eval, policy, &err);
        }
        if (!r || !r->bitExact()) {
            check.expect(false, strCat(what, " ", model::toString(policy),
                                       ": schedule failed: ", err));
            continue;
        }
        if (counters_) {
            counters_->search_nodes += r->search_nodes;
            counters_->handoff_cycles += r->handoff_cycles;
            for (size_t i = 1; i < r->layers.size(); ++i) {
                if (r->layers[i].device == r->layers[i - 1].device) {
                    counters_->reorder_cycles += r->layers[i].reorder_cycles;
                }
            }
        }
        out.push_back(std::move(*r));
    }
    return out;
}

void
DirectRunner::measureSchedule(const model::ModelGraph &graph,
                              const model::ScheduleResult &result,
                              const model::FleetSpec &fleet, uint64_t seed,
                              int64_t op_id, bool reference, Checker &check)
{
    const std::string what = strCat("op ", op_id, " (model ", graph.name,
                                    " ", result.schedule, ")");
    size_t first = 0;
    while (first < result.layers.size()) {
        size_t last = first;
        const int dev = result.layers[first].device;
        while (last + 1 < result.layers.size() &&
               result.layers[last + 1].device == dev) {
            ++last;
        }
        std::vector<sim::ChainStep> steps;
        for (size_t i = first; i <= last; ++i) {
            sim::ChainStep step;
            step.layer = graph.layers[i].spec;
            step.mapping = result.layers[i].plan.mapping;
            step.out_layout = i < last ? result.layers[i + 1].plan.in_layout
                                       : result.layers[i].plan.out_layout;
            step.quant.multiplier = graph.layers[i].multiplier;
            steps.push_back(std::move(step));
        }
        sim::RunOptions ropts;
        ropts.aw = dev >= 0 ? fleet.devices[size_t(dev)].aw : result.aw;
        ropts.ah = dev >= 0 ? fleet.devices[size_t(dev)].ah : result.ah;
        for (size_t i = first; i <= last; ++i) {
            notePlan(graph.layers[i].spec, result.layers[i].plan, ropts.aw,
                     ropts.ah);
        }
        ropts.seed = seed;
        ropts.in_layout = result.layers[first].plan.in_layout;
        const sim::ChainResult res = run(steps, ropts, op_id);
        check.expect(res.checked > 0 && res.mismatches == 0,
                     what + ": simulator's own verification failed");
        for (size_t i = first; i <= last; ++i) {
            check.expect(res.layers[i - first].stats.cycles ==
                             result.layers[i].cycles,
                         strCat(what, ": layer ", i, " re-runs at ",
                                res.layers[i - first].stats.cycles,
                                " cycles, the schedule measured ",
                                result.layers[i].cycles));
        }
        if (reference) {
            const int64_t bad =
                referenceMismatches(steps, seed, res.layers.back().output);
            check.expect(bad == 0,
                         strCat(what, ": ", bad,
                                " output elements differ from the "
                                "independent reference"));
        }
        first = last + 1;
    }
}

void
DirectRunner::finish()
{
    if (!counters_) return;
    const serve::PlanCache::Stats s = cache_.stats();
    counters_->plan_hits = int64_t(s.hits);
    counters_->plan_misses = int64_t(s.misses);
}

} // namespace perfbench
