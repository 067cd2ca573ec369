#pragma once

/**
 * @file
 * BIRRD topology: two back-to-back butterfly networks with log2(AW)-bit
 * bit-reverse inter-stage connections, per Algorithm 1 of the paper.
 *
 * An AW-input BIRRD has 2*log2(AW) stages of AW/2 two-input switches
 * (AW = 4 is the special case with 2*log2(AW)-1 = 3 stages: the last stages
 * of the two half butterflies merge). Stage i's output port j drives stage
 * (i+1)'s input port reverseBits(j, r_i); the final stage's (identity)
 * mapping lands on the output buffers / StaB banks.
 */

#include <cstdint>
#include <vector>

namespace feather {

/** Widest BIRRD, and so the widest array (AW), this model supports: the
 *  router's reachability masks hold one bit per output in a uint64_t. */
constexpr int kMaxBirrdInputs = 64;

/** Static wiring of an AW-input BIRRD. */
class BirrdTopology
{
  public:
    /** @param num_inputs AW; must be a power of two >= 2. */
    explicit BirrdTopology(int num_inputs);

    int numInputs() const { return num_inputs_; }
    int numStages() const { return num_stages_; }
    int switchesPerStage() const { return num_inputs_ / 2; }
    int totalSwitches() const { return numStages() * switchesPerStage(); }

    /**
     * Inter-stage wire: input port of stage (s+1) driven by output port
     * @p port of stage @p s. For s == numStages()-1 this is the output
     * buffer index.
     */
    int wire(int stage, int port) const { return wires_[stage][port]; }

    /**
     * Set of final output-buffer indices reachable from input port @p port
     * of stage @p stage, as a bitmask (AW <= 64). Reachability is
     * config-independent because every switch can steer either input to
     * either output.
     */
    uint64_t reachable(int stage, int port) const
    {
        return reach_[stage][port];
    }

    /** Bit-reversal range of stage @p s (Alg. 1 line 12). */
    int bitRange(int stage) const;

    /**
     * Width of one BIRRD configuration word in bits:
     * 2 bits per switch across all stages (paper: AW*(2*log(AW)-1) for the
     * merged 4-input case generalises to 2 * totalSwitches()).
     */
    int configBits() const { return 2 * totalSwitches(); }

  private:
    int num_inputs_;
    int log2_inputs_;
    int num_stages_;
    /** wires_[s][p]: stage-s output port p -> stage-(s+1) input port. */
    std::vector<std::vector<int>> wires_;
    /** reach_[s][p]: bitmask of reachable outputs from stage-s input p. */
    std::vector<std::vector<uint64_t>> reach_;
};

} // namespace feather
