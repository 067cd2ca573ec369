#include "noc/topology.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace feather {

BirrdTopology::BirrdTopology(int num_inputs) : num_inputs_(num_inputs)
{
    FEATHER_CHECK(num_inputs >= 2 && isPow2(uint64_t(num_inputs)),
                  "BIRRD input count must be a power of two >= 2, got ",
                  num_inputs);
    FEATHER_CHECK(num_inputs <= kMaxBirrdInputs,
                  "router reachability masks support up to ",
                  kMaxBirrdInputs, " inputs");
    log2_inputs_ = int(log2Exact(uint64_t(num_inputs)));

    if (num_inputs_ == 2) {
        num_stages_ = 1;
    } else if (num_inputs_ == 4) {
        // Special case (paper footnote 1): the two half butterflies share
        // their middle stage, giving 2*log2(4)-1 = 3 stages.
        num_stages_ = 3;
    } else {
        num_stages_ = 2 * log2_inputs_;
    }

    wires_.assign(size_t(num_stages_), std::vector<int>(num_inputs_, 0));
    for (int s = 0; s < num_stages_; ++s) {
        const int range = bitRange(s);
        for (int p = 0; p < num_inputs_; ++p) {
            wires_[s][p] = int(reverseBits(uint32_t(p), uint32_t(range)));
        }
    }

    // Reachability: backward pass from the outputs.
    reach_.assign(size_t(num_stages_ + 1),
                  std::vector<uint64_t>(num_inputs_, 0));
    for (int p = 0; p < num_inputs_; ++p) {
        reach_[size_t(num_stages_)][p] = uint64_t{1} << p;
    }
    for (int s = num_stages_ - 1; s >= 0; --s) {
        for (int p = 0; p < num_inputs_; ++p) {
            const int sw = p / 2;
            const int out_l = 2 * sw;
            const int out_r = 2 * sw + 1;
            reach_[s][p] = reach_[s + 1][wires_[s][out_l]] |
                           reach_[s + 1][wires_[s][out_r]];
        }
    }
    // Sanity: from stage 0 every input must reach every output.
    for (int p = 0; p < num_inputs_; ++p) {
        FEATHER_CHECK(reach_[0][p] ==
                          (num_inputs_ == 64
                               ? ~uint64_t{0}
                               : (uint64_t{1} << num_inputs_) - 1),
                      "BIRRD topology is not fully connected from input ", p);
    }
}

int
BirrdTopology::bitRange(int stage) const
{
    FEATHER_CHECK(stage >= 0 && stage < num_stages_, "stage out of range");
    if (num_inputs_ == 2) {
        return 1;
    }
    if (num_inputs_ == 4) {
        // Merged 3-stage network: [2, 2, 1].
        return stage == 2 ? 1 : 2;
    }
    const int n = log2_inputs_;
    return std::min({n, 2 + stage, 2 * n - stage});
}

} // namespace feather
