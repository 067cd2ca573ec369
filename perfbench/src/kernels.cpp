#include "kernels.hpp"

#include <set>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "nest/nest_array.hpp"
#include "noc/router.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace feather;

namespace {

/**
 * BIRRD: the reduction patterns the FEATHER controller emits at each
 * array width (uniform groups of g adjacent columns, destinations rotated
 * across the banks), routed once each through a fresh router, then
 * evaluated repeatedly under the routed configuration.
 */
void
birrd(const std::set<int> &widths, uint64_t seed, Tracer &tracer,
      Checker &check, KernelCalls *calls)
{
    constexpr int kEvalRepeats = 400;
    Rng rng(seed);
    for (int aw : widths) {
        const BirrdTopology topo(aw);
        BirrdRouter router(topo, seed);
        const BirrdNetwork net(aw);
        std::vector<PortValue> inputs(static_cast<size_t>(aw));
        std::vector<PortValue> outputs;
        std::vector<PortValue> scratch;
        for (int g = 1; g <= aw; g *= 2) {
            const int groups = aw / g;
            std::vector<int> group_of(static_cast<size_t>(aw));
            for (int i = 0; i < aw; ++i) group_of[size_t(i)] = i / g;
            std::vector<int> dests(static_cast<size_t>(groups));
            const int rot = int(rng.below(uint64_t(groups)));
            for (int j = 0; j < groups; ++j) {
                dests[size_t(j)] = (j + rot) % groups;
            }
            const RouteRequest req = RouteRequest::reduction(group_of, dests);
            std::optional<BirrdConfigWord> cfg;
            {
                Scope span(&tracer, "noc.route");
                cfg = router.route(req);
            }
            ++calls->route;
            if (!cfg || !BirrdRouter::verify(topo, *cfg, req)) {
                check.expect(false, strCat("BIRRD could not route a ", aw,
                                           "-wide reduction of groups of ",
                                           g));
                continue;
            }
            std::vector<int64_t> sums(size_t(groups), 0);
            for (int i = 0; i < aw; ++i) {
                const int64_t v = int64_t(rng.below(255)) - 127;
                inputs[size_t(i)] = v;
                sums[size_t(i / g)] += v;
            }
            int64_t hops = 0;
            {
                Scope span(&tracer, "noc.evaluate");
                for (int r = 0; r < kEvalRepeats; ++r) {
                    net.evaluateInto(*cfg, inputs, outputs, scratch, &hops);
                }
            }
            calls->evaluate += kEvalRepeats;
            for (int j = 0; j < groups; ++j) {
                const PortValue &got = outputs[size_t(dests[size_t(j)])];
                check.expect(got && *got == sums[size_t(j)],
                             strCat("BIRRD ", aw, "-wide group ", j,
                                    " did not sum at its bank"));
            }
        }
    }
}

/** StaB addressing: every element of each planned input tensor, checked
 *  against the inverse map. */
void
addressing(const std::vector<PlanSample> &plans, Tracer &tracer,
           Checker &check, KernelCalls *calls)
{
    constexpr int kRepeats = 8;
    for (const PlanSample &p : plans) {
        const BoundLayout bound(p.layout, p.extents);
        std::vector<Coord> coords;
        const bool gemm = p.extents[Dim::M] > 0;
        const Dim a = gemm ? Dim::M : Dim::C;
        const Dim b = gemm ? Dim::K : Dim::H;
        const int64_t ce = gemm ? 1 : p.extents[Dim::W];
        for (int64_t i = 0; i < p.extents[a]; ++i) {
            for (int64_t j = 0; j < p.extents[b]; ++j) {
                for (int64_t k = 0; k < ce; ++k) {
                    Coord c;
                    c[a] = i;
                    c[b] = j;
                    if (!gemm) c[Dim::W] = k;
                    coords.push_back(c);
                }
            }
        }
        std::vector<LineAddr> addrs(coords.size());
        {
            Scope span(&tracer, "layout.addr_of");
            for (int r = 0; r < kRepeats; ++r) {
                for (size_t i = 0; i < coords.size(); ++i) {
                    addrs[i] = bound.addrOf(coords[i]);
                }
            }
        }
        calls->addr_of += kRepeats * int64_t(coords.size());
        int64_t bad = 0;
        for (size_t i = 0; i < coords.size(); ++i) {
            bad += bound.coordAt(addrs[i]) == coords[i] ? 0 : 1;
        }
        check.expect(bad == 0, strCat(bad, " addresses under ",
                                      p.layout.toString(),
                                      " do not map back to their element"));
    }
}

/** NEST: row emissions at each planned (AW, AH, t1), checked against a
 *  plain dot product per column. */
void
emission(const std::vector<PlanSample> &plans, uint64_t seed,
         Tracer &tracer, Checker &check, KernelCalls *calls)
{
    constexpr int kRepeats = 20;
    Rng rng(seed);
    for (const PlanSample &p : plans) {
        const int t1 = int(std::min<int64_t>(p.t1, 512));
        NestArray nest(p.aw, p.ah);
        for (int r = 0; r < p.ah; ++r) {
            for (int c = 0; c < p.aw; ++c) {
                for (int l = 0; l < t1; ++l) {
                    nest.loadWeight(r, c, l,
                                    int16_t(int64_t(rng.below(255)) - 127));
                }
            }
        }
        nest.swapWeightBanks();
        std::vector<std::vector<int16_t>> iacts(
            size_t(p.aw), std::vector<int16_t>(size_t(t1)));
        for (auto &col : iacts) {
            for (int16_t &v : col) v = int16_t(int64_t(rng.below(255)) - 127);
        }
        const std::vector<bool> active(size_t(p.aw), true);
        std::vector<std::vector<PortValue>> out(size_t(p.ah));
        {
            Scope span(&tracer, "nest.row_emission");
            for (int rep = 0; rep < kRepeats; ++rep) {
                for (int r = 0; r < p.ah; ++r) {
                    out[size_t(r)] = nest.computeRowEmission(r, iacts, active);
                }
            }
        }
        calls->row_emission += int64_t(kRepeats) * p.ah;
        int64_t bad = 0;
        for (int r = 0; r < p.ah; ++r) {
            for (int c = 0; c < p.aw; ++c) {
                int64_t want = 0;
                for (int l = 0; l < t1; ++l) {
                    want += int64_t(iacts[size_t(c)][size_t(l)]) *
                            nest.weight(r, c, l);
                }
                const PortValue &got = out[size_t(r)][size_t(c)];
                bad += got && *got == want ? 0 : 1;
            }
        }
        check.expect(bad == 0, strCat(bad, " NEST emissions at ", p.aw, "x",
                                      p.ah, " t1=", t1,
                                      " differ from the dot product"));
    }
}

} // namespace

KernelCalls
runKernels(const std::vector<PlanSample> &plans, uint64_t seed,
           Tracer &tracer, Checker &check)
{
    KernelCalls calls;
    std::set<int> widths;
    for (const PlanSample &p : plans) widths.insert(p.aw);
    birrd(widths, seed, tracer, check, &calls);
    addressing(plans, tracer, check, &calls);
    emission(plans, seed, tracer, check, &calls);
    return calls;
}

} // namespace perfbench
