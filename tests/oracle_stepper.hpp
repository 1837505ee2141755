// Test oracle for whole-model stepping: the gather psum oracles
// (compute::conv_psum / linear_psum) feeding the per-neuron fire oracle
// (compute::fire_reference), over plain unpadded vectors. It shares no
// code with the engines' kernels, SoA banks or transposes, so an engine
// that matches it step by step matches the model's definition.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "snn/compute.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"

namespace sia::snn::testing {

class OracleStepper {
public:
    /// Per-step readout history and per-layer spike totals of run().
    struct Run {
        std::vector<std::vector<std::int64_t>> logits_per_step;
        std::vector<std::int64_t> spike_counts;
    };

    explicit OracleStepper(const SnnModel& model) : model_(model) {
        for (const SnnLayer& layer : model_.layers) {
            const bool conv = layer.op == LayerOp::kConv;
            main_wt_.push_back(conv ? compute::transpose_conv(layer.main)
                                    : compute::transpose_linear(layer.main));
            skip_wt_.push_back(conv && layer.has_skip() && !layer.skip_is_identity
                                   ? compute::transpose_conv(layer.skip)
                                   : std::vector<std::int8_t>{});
            membranes_.emplace_back(static_cast<std::size_t>(layer.neurons()),
                                    layer.spiking ? layer.initial_potential
                                                  : std::int16_t{0});
            spikes_.emplace_back(layer.out_channels, layer.out_h, layer.out_w);
        }
        readout_.assign(static_cast<std::size_t>(model_.classes), 0);
        spike_counts_.assign(model_.layers.size(), 0);
    }

    void step(const SpikeMap& input) {
        for (std::size_t i = 0; i < model_.layers.size(); ++i) {
            const SnnLayer& layer = model_.layers[i];
            const SpikeMap& in = source(layer.input, input);
            const std::vector<std::int32_t> psum =
                psum_chw(layer, layer.main, main_wt_[i], in);
            if (!layer.spiking) {
                for (std::size_t f = 0; f < psum.size(); ++f) {
                    readout_[f] += compute::aggregate(psum[f], layer.main.gain[f],
                                                      layer.main.bias[f],
                                                      layer.main.gain_shift);
                }
                continue;
            }
            std::vector<std::int32_t> skip_psum;
            const std::uint64_t* skip_words = nullptr;
            if (layer.has_skip()) {
                const SpikeMap& skip_in = source(layer.skip_src, input);
                if (layer.skip_is_identity) {
                    skip_words = skip_in.raw().data();
                } else {
                    skip_psum = psum_chw(layer, layer.skip, skip_wt_[i], skip_in);
                }
            }
            compute::fire_reference(layer, psum.data(), skip_psum.data(), skip_words,
                                    membranes_[i].data(), spikes_[i]);
            spike_counts_[i] += spikes_[i].count();
        }
    }

    /// Fresh state, then step() over the train.
    [[nodiscard]] static Run run(const SnnModel& model, const SpikeTrain& train) {
        OracleStepper oracle(model);
        Run r;
        for (const SpikeMap& frame : train) {
            oracle.step(frame);
            r.logits_per_step.push_back(oracle.readout());
        }
        r.spike_counts = oracle.spike_counts_;
        return r;
    }

    [[nodiscard]] const SpikeMap& layer_spikes(std::size_t i) const {
        return spikes_.at(i);
    }
    [[nodiscard]] std::span<const std::int16_t> membrane(std::size_t i) const {
        return membranes_.at(i);
    }
    [[nodiscard]] const std::vector<std::int64_t>& readout() const { return readout_; }

private:
    const SpikeMap& source(int src, const SpikeMap& input) const {
        return src == -1 ? input : spikes_.at(static_cast<std::size_t>(src));
    }

    /// Gather-oracle psums of one branch, reordered HWC -> CHW.
    static std::vector<std::int32_t> psum_chw(const SnnLayer& layer, const Branch& b,
                                              const std::vector<std::int8_t>& wt,
                                              const SpikeMap& in) {
        const std::int64_t oc = layer.out_channels;
        const std::int64_t plane = layer.out_h * layer.out_w;
        std::vector<std::int32_t> hwc(static_cast<std::size_t>(oc * plane));
        if (layer.op == LayerOp::kConv) {
            compute::conv_psum(b, wt, in, layer.out_h, layer.out_w, hwc);
        } else {
            compute::linear_psum(b, wt, in, hwc);
        }
        std::vector<std::int32_t> chw(hwc.size());
        for (std::int64_t o = 0; o < oc; ++o) {
            for (std::int64_t p = 0; p < plane; ++p) {
                chw[static_cast<std::size_t>(o * plane + p)] =
                    hwc[static_cast<std::size_t>(p * oc + o)];
            }
        }
        return chw;
    }

    const SnnModel& model_;
    std::vector<std::vector<std::int8_t>> main_wt_;
    std::vector<std::vector<std::int8_t>> skip_wt_;
    std::vector<std::vector<std::int16_t>> membranes_;
    std::vector<SpikeMap> spikes_;
    std::vector<std::int64_t> readout_;
    std::vector<std::int64_t> spike_counts_;
};

}  // namespace sia::snn::testing
