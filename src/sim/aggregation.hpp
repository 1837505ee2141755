// Aggregation core (§III-B): batch-norm unit + activation unit.
//
// The batch-norm unit maps a 16-bit partial sum into the membrane domain
// with the fixed-point affine y*G + H (Eq. 2); the activation unit adds
// the previous membrane potential, compares against the layer threshold,
// and applies reset-by-subtraction (or reset-to-zero). A mode bit selects
// IF (0) or LIF (1) dynamics, exactly as described in the paper.
//
// The arithmetic has one definition, shared with snn::FunctionalEngine:
// sim::Sia fires through the fused kernels of snn/compute.hpp
// (compute::aggregate_fire_dense/lif via snn::LayerState). What this
// class models is the pipeline's timing.
#pragma once

#include <cstdint>

namespace sia::sim {

class AggregationCore {
public:
    /// Cycle cost to retire `neurons` results through the pipelined
    /// BN-multiply + compare datapath (`lanes` results per cycle after
    /// the pipeline fills).
    [[nodiscard]] static std::int64_t retire_cycles(std::int64_t neurons,
                                                    std::int64_t lanes,
                                                    std::int64_t pipeline_depth) noexcept {
        if (neurons <= 0) return 0;
        return (neurons + lanes - 1) / lanes + pipeline_depth;
    }
};

}  // namespace sia::sim
