#include "snn/layer_state.hpp"

#include <algorithm>

namespace sia::snn {

namespace {

/// Broadcast per-channel coefficients [c0, c0 + channels) into a
/// per-neuron CHW bank: each channel's value fills its whole [plane]
/// slice. Padding lanes past `channels * plane` stay zero
/// (AlignedVec::assign zeroed them), so a padding lane always
/// aggregates to zero current.
void broadcast_per_channel(const std::vector<std::int16_t>& per_channel, std::int64_t c0,
                           std::int64_t channels, std::int64_t plane,
                           simd::AlignedVec<std::int16_t>& bank) {
    for (std::int64_t c = 0; c < channels; ++c) {
        std::int16_t* slice = bank.data() + c * plane;
        std::fill(slice, slice + plane, per_channel[static_cast<std::size_t>(c0 + c)]);
    }
}

bool has_conv_skip(const SnnLayer& layer) {
    return layer.has_skip() && !layer.skip_is_identity;
}

}  // namespace

void LayerState::init(const SnnLayer& layer, std::int64_t first, std::int64_t end) {
    stride = layer.out_channels;
    if (end < 0) end = stride;
    c0 = first;
    channels = end - first;
    plane = layer.out_h * layer.out_w;
    neurons = channels * plane;
    padded = (neurons + simd::kBlock - 1) / simd::kBlock * simd::kBlock;
    interleaved = channels != stride || (channels > 1 && plane > 1);

    const auto np = static_cast<std::size_t>(padded);
    const auto accum_size = static_cast<std::size_t>(interleaved ? plane * stride : 0);
    psum.assign(np);
    psum_hwc.assign(accum_size);
    // Readout layers only aggregate psums into the wide logits; the
    // membrane bank stays allocated (all-zero, exposed through the
    // engine's membrane() accessor) but no broadcast coefficient banks
    // exist — the readout loop is O(classes) and reads the per-channel
    // values directly.
    membrane.assign(np);

    // When the plane is a whole number of 64-neuron words the fused
    // kernels take the channel-uniform path (two broadcast scalars per
    // word straight from the per-channel arrays) and never touch the
    // broadcast banks — skip materializing them.
    const bool banks = layer.spiking && plane % simd::kBlock != 0;
    gain.assign(banks ? np : 0);
    bias.assign(banks ? np : 0);
    if (banks) {
        broadcast_per_channel(layer.main.gain, c0, channels, plane, gain);
        broadcast_per_channel(layer.main.bias, c0, channels, plane, bias);
    }

    const bool conv_skip = layer.spiking && has_conv_skip(layer);
    skip_psum.assign(conv_skip ? np : 0);
    skip_psum_hwc.assign(conv_skip ? accum_size : 0);
    skip_gain.assign(conv_skip && banks ? np : 0);
    skip_bias.assign(conv_skip && banks ? np : 0);
    if (conv_skip && banks) {
        broadcast_per_channel(layer.skip.gain, c0, channels, plane, skip_gain);
        broadcast_per_channel(layer.skip.bias, c0, channels, plane, skip_bias);
    }
}

void LayerState::reset_membrane(std::int16_t initial) {
    std::fill(membrane.data(), membrane.data() + neurons, initial);
    // Padding lanes stay zero: they never fire into the result (tail
    // bits are masked) and keeping them fixed makes reruns identical.
    std::fill(membrane.data() + neurons, membrane.data() + padded, std::int16_t{0});
}

compute::FireArgs LayerState::fire_args(const SnnLayer& layer,
                                        const std::uint64_t* skip_words) {
    compute::FireArgs a;
    a.psum = psum.data();
    a.gain = gain.data();
    a.bias = bias.data();
    a.channel_gain = layer.main.gain.data() + c0;
    a.channel_bias = layer.main.bias.data() + c0;
    a.plane = plane;
    a.gain_shift = layer.main.gain_shift;
    if (has_conv_skip(layer)) {
        a.skip_psum = skip_psum.data();
        a.skip_gain = skip_gain.data();
        a.skip_bias = skip_bias.data();
        a.skip_channel_gain = layer.skip.gain.data() + c0;
        a.skip_channel_bias = layer.skip.bias.data() + c0;
        a.skip_gain_shift = layer.skip.gain_shift;
    } else if (layer.has_skip()) {
        // Identity skip: same CHW geometry as the output, so the packed
        // source words align bit-for-bit with the fire blocks.
        a.skip_words = skip_words;
        a.identity_charge = layer.identity_skip.charge;
    }
    a.membrane = membrane.data();
    a.threshold = layer.threshold;
    a.reset = layer.reset;
    a.leak_shift = layer.leak_shift;
    a.neurons = neurons;
    return a;
}

void LayerState::fire(const SnnLayer& layer, const std::uint64_t* skip_words,
                      SpikeMap& out) {
    if (interleaved) {
        compute::transpose_hwc_to_chw(psum_hwc.data() + c0, psum.data(), channels, plane,
                                      stride);
        if (has_conv_skip(layer)) {
            compute::transpose_hwc_to_chw(skip_psum_hwc.data() + c0, skip_psum.data(),
                                          channels, plane, stride);
        }
    }
    const compute::FireArgs args = fire_args(layer, skip_words);
    if (layer.neuron == NeuronKind::kLif) {
        compute::aggregate_fire_lif(args, out);
    } else {
        compute::aggregate_fire_dense(args, out);
    }
}

}  // namespace sia::snn
