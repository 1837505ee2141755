// Structure-of-arrays runtime state of one layer's fire stage — the one
// fire path both engines run.
//
// One LayerState owns every mutable bank the fire stage touches, laid
// out flat, 64-byte aligned and padded to whole 64-neuron blocks so the
// fused aggregate+fire kernels (snn::compute::aggregate_fire_*) can
// stream them 64 lanes per iteration and write the fire mask directly
// into the packed SpikeMap words:
//
//   psum      int32  CHW   aggregated synaptic current (kernel input)
//   membrane  int16  CHW   potentials (read-modify-write in the pass)
//   gain/bias int16  CHW   per-output-channel aggregation coefficients
//                          broadcast per neuron, so the channel-major
//                          lookup is a contiguous stream with no
//                          per-lane channel indexing (and channel
//                          boundaries inside a 64-block need no care)
//
// The banks cover output channels [c0, c0 + channels) of the layer: the
// whole layer for snn::FunctionalEngine, which keeps one LayerState per
// layer, and one shard's channel slice for sim::Sia, which keeps a
// single LayerState sized to its largest layer and re-inits it for each
// layer pass. The psum scatter kernels (conv_psum_scatter /
// linear_psum_scatter) produce HWC order with the layer's full
// output-channel stride — their inner loop accumulates a contiguous
// [OC] weight row per output window a spike touches — while the fire
// stage wants the slice in CHW, the SpikeMap bit order. When the two
// differ (a slice, or channels > 1 and a spatial plane > 1) the layer
// carries a separate HWC accumulation bank and fire() runs a
// cache-blocked transpose (compute::transpose_hwc_to_chw) between the
// stages; when they coincide (whole linear layers, 1x1 spatial) the
// kernels accumulate straight into the CHW bank. Padding lanes hold
// zero psum and zero gain/bias, so they aggregate to zero current; the
// kernels additionally mask the final word's tail bits so a padding
// lane can never emit a spike.
#pragma once

#include <cstdint>
#include <span>

#include "snn/compute.hpp"
#include "snn/model.hpp"
#include "snn/simd.hpp"
#include "snn/spike.hpp"

namespace sia::snn {

struct LayerState {
    std::int64_t neurons = 0;  ///< channels * plane
    std::int64_t padded = 0;   ///< neurons rounded up to a 64 multiple
    std::int64_t channels = 0; ///< output channels the banks hold
    std::int64_t plane = 0;    ///< OH * OW
    std::int64_t c0 = 0;       ///< first of those channels in the layer
    std::int64_t stride = 0;   ///< the layer's OC: HWC row stride of the accumulation banks
    /// True when the accumulation order (full-stride HWC) differs from
    /// the fire order (the slice's CHW): the psum kernels then target
    /// `psum_hwc` and fire() transposes into `psum` first.
    bool interleaved = false;

    simd::AlignedVec<std::int32_t> psum;      ///< CHW fire bank (padded)
    simd::AlignedVec<std::int32_t> psum_hwc;  ///< HWC accumulation bank (interleaved only)
    simd::AlignedVec<std::int16_t> membrane;  ///< CHW potentials (padded)
    simd::AlignedVec<std::int16_t> gain;      ///< main-branch G_q broadcast per neuron
    simd::AlignedVec<std::int16_t> bias;      ///< main-branch H_q broadcast per neuron

    // Residual downsample branch (conv skip): same treatment as main.
    simd::AlignedVec<std::int32_t> skip_psum;
    simd::AlignedVec<std::int32_t> skip_psum_hwc;
    simd::AlignedVec<std::int16_t> skip_gain;
    simd::AlignedVec<std::int16_t> skip_bias;

    /// Size and zero every bank for output channels [c0, c1) of `layer`
    /// (a negative `c1` means the whole layer); broadcasts the slice's
    /// per-channel gain/bias coefficients into per-neuron streams.
    void init(const SnnLayer& layer, std::int64_t c0 = 0, std::int64_t c1 = -1);

    /// Reset mutable state between runs: membranes to `initial` (real
    /// lanes; padding lanes stay zero), psum banks untouched (they are
    /// overwritten every step).
    void reset_membrane(std::int16_t initial);

    /// The main-branch accumulation target the psum kernels write: the
    /// whole layer's plane * stride elements (HWC when interleaved, CHW
    /// else), of which a sliced call fills channels [c0, c0 + channels).
    [[nodiscard]] std::span<std::int32_t> accum() noexcept {
        return {interleaved ? psum_hwc.data() : psum.data(),
                static_cast<std::size_t>(plane * stride)};
    }
    [[nodiscard]] std::span<std::int32_t> skip_accum() noexcept {
        return {interleaved ? skip_psum_hwc.data() : skip_psum.data(),
                static_cast<std::size_t>(plane * stride)};
    }

    /// Kernel arguments over these banks for spiking `layer`.
    /// `skip_words` is the identity-skip source in the slice's geometry
    /// (read only when the layer has an identity skip).
    [[nodiscard]] compute::FireArgs fire_args(const SnnLayer& layer,
                                              const std::uint64_t* skip_words);

    /// The fire stage of one timestep: reorder the accumulated psums
    /// into CHW when interleaved, then one fused aggregate+fire kernel
    /// call (IF or LIF by the layer's neuron kind) that updates
    /// `membrane` and overwrites every word of `out`, a map of
    /// `neurons` bits.
    void fire(const SnnLayer& layer, const std::uint64_t* skip_words, SpikeMap& out);
};

}  // namespace sia::snn
