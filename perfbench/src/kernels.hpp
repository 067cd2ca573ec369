#pragma once

/**
 * @file
 * The kernel rung of the traced run: BIRRD route + evaluate, StaB
 * addressing and NEST row emission, timed in batches on the shapes and
 * layouts the workload's own layers planned to, and checked.
 */

#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer;

/** Calls made per kernel, to turn span totals into per-call times. */
struct KernelCalls
{
    int64_t route = 0;
    int64_t evaluate = 0;
    int64_t addr_of = 0;
    int64_t row_emission = 0;
};

KernelCalls runKernels(const std::vector<PlanSample> &plans, uint64_t seed,
                       Tracer &tracer, Checker &check);

} // namespace perfbench
