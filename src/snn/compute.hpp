// Shared integer compute primitives for SnnModel execution.
//
// Both the functional engine (snn::FunctionalEngine) and the
// cycle-accurate hardware simulator (sim::Sia) run one definition of
// each stage: partial sums through the event-driven scatter kernels,
// and the aggregation core's fire stage (Eq. 2 batch-norm affine, then
// IF/LIF integrate, threshold and reset) through the fused SoA kernels,
// both reached via snn::LayerState. One implementation, two
// schedulers — which is what makes the bit-exact software/hardware
// co-verification a structural property rather than a testing
// aspiration. The gather forms (conv_psum, linear_psum) and the
// per-neuron fire loop (fire_reference) are kept only as the test
// oracles the kernels are checked against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "util/fixed_point.hpp"

namespace sia::snn::compute {

/// Transpose conv weights [OC][IC][k][k] -> [IC*k*k][OC]: each input
/// tap's weights contiguous over output channels.
[[nodiscard]] std::vector<std::int8_t> transpose_conv(const Branch& b);

/// Transpose linear weights [F][D] -> [D][F].
[[nodiscard]] std::vector<std::int8_t> transpose_linear(const Branch& b);

/// Event-driven convolution partial sums — the one psum path both
/// engines run. Iterates the input's spike events via the packed-word
/// iterator and scatters each spike's [k][k][OC] weight rows into the
/// output windows it touches: O(spikes * k * k * OC) with no dense
/// scan, so cost scales with activity. `psum` is HWC
/// ([out_h][out_w][OC], int32). Only output channels [oc_begin, oc_end)
/// are cleared and accumulated (a negative `oc_end` means the whole
/// layer) — the channel-parallel shard schedule, where each accelerator
/// owns a contiguous slice of a layer's output channels; `psum` keeps
/// the full-OC stride either way. Accumulation is exact int32 and
/// order-independent, so disjoint slices compose bit-identically to one
/// full pass; 16-bit saturation is applied at aggregation handoff,
/// matching the PE-to-aggregation-core interface.
void conv_psum_scatter(const Branch& b, const std::vector<std::int8_t>& wt,
                       const SpikeMap& in, std::int64_t out_h, std::int64_t out_w,
                       std::span<std::int32_t> psum, std::int64_t oc_begin = 0,
                       std::int64_t oc_end = -1);

/// Event-driven fully-connected partial sums ([F] layout): word-skips
/// the packed input to visit only spike events, accumulating each
/// spike's weight row. Only output features [f_begin, f_end) are
/// cleared and accumulated (a negative `f_end` means the whole layer),
/// with the same slice-composition guarantee as conv_psum_scatter.
void linear_psum_scatter(const Branch& b, const std::vector<std::int8_t>& wt,
                         const SpikeMap& in, std::span<std::int32_t> psum,
                         std::int64_t f_begin = 0, std::int64_t f_end = -1);

/// Gather-form test oracle for conv_psum_scatter: scans every output
/// pixel x input tap and accumulates where the input bit is set
/// (O(out_h * out_w * IC * k * k) regardless of sparsity). Clears the
/// whole `psum` first. No engine runs it; the kernel tests and the
/// hot-path bench compare the scatter kernel against it.
void conv_psum(const Branch& b, const std::vector<std::int8_t>& wt, const SpikeMap& in,
               std::int64_t out_h, std::int64_t out_w, std::span<std::int32_t> psum);

/// Gather-form test oracle for linear_psum_scatter ([F], cleared
/// first): scans every input feature's bit and accumulates the set ones.
void linear_psum(const Branch& b, const std::vector<std::int8_t>& wt, const SpikeMap& in,
                 std::span<std::int32_t> psum);

/// Cache-blocked [plane][channels] -> [channels][plane] int32 transpose:
/// reorders an HWC psum accumulation bank into the CHW order the fused
/// fire kernels (and the packed SpikeMap bit layout) use. Consecutive
/// HWC rows are `stride` (>= channels) elements apart, so a channel
/// slice [c0, c0 + channels) of a bank with `stride` channels
/// transposes from `hwc + c0`. `chw` may be padded past
/// channels * plane; only the first channels * plane elements are
/// written.
void transpose_hwc_to_chw(const std::int32_t* hwc, std::int32_t* chw,
                          std::int64_t channels, std::int64_t plane, std::int64_t stride);

/// Inputs of the fused aggregate+fire kernels. All banks are flat CHW,
/// 64-byte aligned, padded to a 64-neuron multiple with zero psum and
/// zero gain/bias in the padding lanes (snn::LayerState's layout);
/// gain/bias are the per-output-channel coefficients broadcast per
/// neuron, so the kernels read contiguous streams only.
struct FireArgs {
    const std::int32_t* psum = nullptr;  ///< main-branch aggregated current
    /// Per-neuron broadcast coefficient banks (any layer geometry).
    const std::int16_t* gain = nullptr;
    const std::int16_t* bias = nullptr;
    /// Channel-uniform fast path: when `plane` is a whole number of
    /// 64-neuron words, every word lies inside one channel, so the
    /// kernels hoist the coefficients to two broadcast scalars per word
    /// from these per-channel arrays instead of streaming the banks
    /// (saves a third of the pass's memory traffic on conv shapes).
    /// Set both `plane` (% 64 == 0) and these pointers to take it; the
    /// banks are then ignored and may be null.
    const std::int16_t* channel_gain = nullptr;
    const std::int16_t* channel_bias = nullptr;
    std::int64_t plane = 0;  ///< OH * OW (used by the uniform path only)
    int gain_shift = util::kBnGainShift;

    /// Residual downsample branch (fused two-psum aggregate); ignored
    /// unless the layer has a non-identity skip. Same bank/uniform
    /// split as the main branch.
    const std::int32_t* skip_psum = nullptr;
    const std::int16_t* skip_gain = nullptr;
    const std::int16_t* skip_bias = nullptr;
    const std::int16_t* skip_channel_gain = nullptr;
    const std::int16_t* skip_channel_bias = nullptr;
    int skip_gain_shift = util::kBnGainShift;

    /// Identity-skip source spikes as packed words (same CHW geometry
    /// as the output map); null unless the layer has an identity skip.
    const std::uint64_t* skip_words = nullptr;
    std::int16_t identity_charge = 0;

    std::int16_t* membrane = nullptr;  ///< read-modify-write potentials
    std::int16_t threshold = 0;
    ResetMode reset = ResetMode::kSubtract;
    int leak_shift = 0;  ///< LIF kernel only
    std::int64_t neurons = 0;
};

/// Fused fire stage for IF neurons: one dense sweep over the SoA banks
/// that aggregates (main + optional skip), thresholds, resets
/// (subtract/zero) and emits spikes — 64 neurons per iteration as
/// 8-lane int32 groups with no per-neuron branches, the fire mask
/// assembled from lane compares and written word-wise into `out`
/// (every word overwritten, tail bits masked). Bit-identical to
/// fire_reference: each lane performs the same util/fixed_point lane
/// ops in the same order.
void aggregate_fire_dense(const FireArgs& a, SpikeMap& out);

/// As aggregate_fire_dense with the LIF leak (U -= U >> leak_shift,
/// saturating) fused in front of the integration.
void aggregate_fire_lif(const FireArgs& a, SpikeMap& out);

/// Aggregation-core arithmetic (batch-norm unit of Eq. 2): 16-bit
/// saturating psum, fixed-point gain multiply, bias add. Written in the
/// int32 lane ops of util/fixed_point.hpp — the exact per-lane recipe
/// the fused fire kernels execute 8 lanes at a time. Called only by
/// fire_reference and the readout-layer logit accumulation.
[[nodiscard]] inline std::int16_t aggregate(std::int32_t psum, std::int16_t gain,
                                            std::int16_t bias, int shift) noexcept {
    const std::int32_t p16 = util::clamp16_lane(psum);
    const std::int32_t scaled = util::fxp_mul_shift_lane(p16, gain, shift);
    return static_cast<std::int16_t>(util::clamp16_lane(scaled + bias));
}

/// Activation-unit update: leak (LIF mode), integrate, threshold
/// compare, reset. Returns the new potential; sets `spike`. Same
/// int32-lane spelling as `aggregate` (see there).
[[nodiscard]] inline std::int16_t update_neuron(std::int16_t membrane, std::int16_t current,
                                                const SnnLayer& layer,
                                                bool& spike) noexcept {
    std::int32_t u = membrane;
    if (layer.neuron == NeuronKind::kLif) {
        u = util::clamp16_lane(u - (u >> layer.leak_shift));
    }
    u = util::clamp16_lane(u + current);
    spike = u >= layer.threshold;
    if (spike) {
        u = layer.reset == ResetMode::kSubtract ? util::clamp16_lane(u - layer.threshold)
                                                : 0;
    }
    return static_cast<std::int16_t>(u);
}

/// Per-neuron fire-stage test oracle for aggregate_fire_dense/lif: for
/// every neuron of spiking `layer` in flat CHW order, aggregate its
/// psum (plus the downsample branch's psum, or the identity charge
/// where the skip source bit is set), update its membrane with
/// update_neuron and set its spike bit in `out` (every bit written).
/// `psum`/`skip_psum`/`membrane` are unpadded CHW banks of
/// layer.neurons() elements; `skip_psum` is read only for a conv skip
/// and `skip_words` (the source map's packed words) only for an
/// identity skip. No engine runs it; the equivalence tests and the
/// hot-path bench compare the fused kernels against it.
void fire_reference(const SnnLayer& layer, const std::int32_t* psum,
                    const std::int32_t* skip_psum, const std::uint64_t* skip_words,
                    std::int16_t* membrane, SpikeMap& out);

}  // namespace sia::snn::compute
