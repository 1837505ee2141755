#include "snn/engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "snn/compute.hpp"

namespace sia::snn {

std::size_t argmax_first(std::span<const std::int64_t> logits) noexcept {
    std::size_t best = 0;
    for (std::size_t j = 1; j < logits.size(); ++j) {
        // Strict > : an equal later logit never displaces the earlier
        // one, so ties resolve to the first (lowest) index.
        if (logits[j] > logits[best]) best = j;
    }
    return best;
}

std::int64_t RunResult::predicted_class(std::int64_t t) const {
    return static_cast<std::int64_t>(
        argmax_first(logits_per_step.at(static_cast<std::size_t>(t))));
}

FunctionalEngine::FunctionalEngine(const SnnModel& model, EngineConfig config)
    : model_(model), config_(config) {
    model_.validate();
    const std::size_t n = model_.layers.size();
    main_wt_.resize(n);
    skip_wt_.resize(n);
    state_.resize(n);
    spikes_.resize(n);
    spike_counts_.assign(n, 0);
    dispatch_.assign(n, LayerDispatchStats{});

    for (std::size_t i = 0; i < n; ++i) {
        const SnnLayer& layer = model_.layers[i];
        if (layer.op == LayerOp::kConv) {
            main_wt_[i] = compute::transpose_conv(layer.main);
            if (layer.has_skip() && !layer.skip_is_identity) {
                skip_wt_[i] = compute::transpose_conv(layer.skip);
            }
        } else {
            main_wt_[i] = compute::transpose_linear(layer.main);
        }
        state_[i].init(layer);
        spikes_[i] = SpikeMap(layer.out_channels, layer.out_h, layer.out_w);
    }
    readout_.assign(static_cast<std::size_t>(model_.classes), 0);
    reset();
}

void FunctionalEngine::reset() {
    reset_membranes();
    reset_readout();
    reset_stats();
}

void FunctionalEngine::reset_membranes() {
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        const SnnLayer& layer = model_.layers[i];
        state_[i].reset_membrane(layer.spiking ? layer.initial_potential
                                               : std::int16_t{0});
        spikes_[i].clear();
    }
}

void FunctionalEngine::reset_readout() {
    std::fill(readout_.begin(), readout_.end(), std::int64_t{0});
}

void FunctionalEngine::reset_stats() {
    std::fill(spike_counts_.begin(), spike_counts_.end(), std::int64_t{0});
    std::fill(dispatch_.begin(), dispatch_.end(), LayerDispatchStats{});
}

void FunctionalEngine::save_session(SessionState& session) const {
    session.membranes.resize(model_.layers.size());
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        if (!model_.layers[i].spiking) {
            session.membranes[i].clear();
            continue;
        }
        const LayerState& st = state_[i];
        session.membranes[i].assign(st.membrane.data(),
                                    st.membrane.data() + st.neurons);
    }
    session.readout = readout_;
    session.initialized = true;
}

void FunctionalEngine::restore_session(const SessionState& session) {
    if (!session.initialized) {
        reset();
        return;
    }
    if (session.membranes.size() != model_.layers.size() ||
        session.readout.size() != readout_.size()) {
        throw std::invalid_argument(
            "FunctionalEngine::restore_session: state/model geometry mismatch");
    }
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        if (!model_.layers[i].spiking) continue;
        LayerState& st = state_[i];
        const auto& mem = session.membranes[i];
        if (mem.size() != static_cast<std::size_t>(st.neurons)) {
            throw std::invalid_argument(
                "FunctionalEngine::restore_session: membrane size mismatch");
        }
        std::copy(mem.begin(), mem.end(), st.membrane.data());
        // Spike maps never carry across a step boundary; clear so the
        // restored engine starts the window from a clean slate.
        spikes_[i].clear();
    }
    std::copy(session.readout.begin(), session.readout.end(), readout_.begin());
    reset_stats();
}

const SpikeMap& FunctionalEngine::source_spikes(int src, const SpikeMap& input) const {
    return src == -1 ? input : spikes_.at(static_cast<std::size_t>(src));
}

void FunctionalEngine::step(const SpikeMap& input) {
    if (input.channels() != model_.input_channels || input.height() != model_.input_h ||
        input.width() != model_.input_w) {
        throw std::invalid_argument("FunctionalEngine::step: input geometry mismatch");
    }
    current_input_ = &input;
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        const SnnLayer& layer = model_.layers[i];
        const SpikeMap& in = source_spikes(layer.input, input);
        if (layer.op == LayerOp::kConv) {
            compute::conv_psum_scatter(layer.main, main_wt_[i], in, layer.out_h,
                                       layer.out_w, state_[i].accum());
        } else {
            compute::linear_psum_scatter(layer.main, main_wt_[i], in, state_[i].accum());
        }
        LayerDispatchStats& d = dispatch_[i];
        ++d.scatter_steps;
        d.input_spikes += in.count();
        d.input_sites += in.size();
        integrate_and_fire(i);
        // integrate_and_fire needs the skip source; it reads it lazily via
        // the spikes_ array, which is valid because skip_src < i.
    }
}

void FunctionalEngine::integrate_and_fire(std::size_t index) {
    const SnnLayer& layer = model_.layers[index];
    LayerState& st = state_[index];

    if (!layer.spiking) {
        // Readout layer: accumulate aggregated current into wide logits
        // (O(classes); never worth vectorizing).
        const std::int32_t* psum = st.accum().data();
        for (std::int64_t f = 0; f < layer.out_channels; ++f) {
            const std::int16_t m =
                compute::aggregate(psum[f], layer.main.gain[static_cast<std::size_t>(f)],
                                   layer.main.bias[static_cast<std::size_t>(f)],
                                   layer.main.gain_shift);
            readout_[static_cast<std::size_t>(f)] += m;
        }
        return;
    }

    // Resolve the residual source: an identity skip feeds its packed
    // words to the fire kernel, a downsample branch accumulates its
    // psum. skip_src may be -1 (network input) when the stem runs on
    // the processor-side front end and the first block skips from it.
    const std::uint64_t* skip_words = nullptr;
    if (layer.has_skip()) {
        const SpikeMap& skip_spikes =
            layer.skip_src == -1 ? *current_input_
                                 : spikes_.at(static_cast<std::size_t>(layer.skip_src));
        if (layer.skip_is_identity) {
            skip_words = skip_spikes.raw().data();
        } else {
            // Counters track the main branch only.
            compute::conv_psum_scatter(layer.skip, skip_wt_[index], skip_spikes,
                                       layer.out_h, layer.out_w, st.skip_accum());
        }
    }

    st.fire(layer, skip_words, spikes_[index]);
    spike_counts_[index] += spikes_[index].count();
}

RunResult FunctionalEngine::run(const SpikeTrain& input) {
    reset();
    return run_window_impl(input, nullptr);
}

RunResult FunctionalEngine::run(const SpikeTrain& input, const ExitCriterion& exit) {
    reset();
    return run_window_impl(input, &exit);
}

RunResult FunctionalEngine::run_window(const SpikeTrain& input) {
    return run_window_impl(input, nullptr);
}

RunResult FunctionalEngine::run_window(const SpikeTrain& input,
                                       const ExitCriterion& exit) {
    return run_window_impl(input, &exit);
}

RunResult FunctionalEngine::run_window_impl(const SpikeTrain& input,
                                            const ExitCriterion* exit) {
    RunResult res;
    res.steps_offered = static_cast<std::int64_t>(input.size());
    if (config_.record_readout_history) res.logits_per_step.reserve(input.size());
    // The evaluator's baseline is the readout carried in at window
    // entry, so session windows exit on their own delta (zeros after a
    // reset(), which makes the stateless case the absolute readout).
    std::optional<ExitEvaluator> eval;
    if (exit != nullptr && exit->enabled()) eval.emplace(*exit, readout_);
    if (exit != nullptr && !exit->enabled()) exit->validate();
    std::int64_t steps = 0;
    for (const SpikeMap& frame : input) {
        step(frame);
        ++steps;
        if (config_.record_readout_history) res.logits_per_step.push_back(readout_);
        if (eval) {
            const ExitReason reason = eval->observe(readout_, steps);
            if (reason != ExitReason::kNone) {
                res.exit_reason = reason;
                break;  // the item drops out of the hot loop
            }
        }
    }
    res.timesteps = steps;
    res.readout = readout_;
    res.spike_counts = spike_counts_;
    res.layer_dispatch = dispatch_;
    res.neuron_counts.reserve(model_.layers.size());
    for (const SnnLayer& layer : model_.layers) res.neuron_counts.push_back(layer.neurons());
    return res;
}

RunResult FunctionalEngine::run_window(const SpikeTrain& input, SessionState& session) {
    restore_session(session);  // zeroes per-run counters: stats are per-window
    RunResult res = run_window_impl(input, nullptr);
    save_session(session);
    session.steps += res.timesteps;
    ++session.windows;
    return res;
}

RunResult FunctionalEngine::run_window(const SpikeTrain& input, SessionState& session,
                                       const ExitCriterion& exit) {
    restore_session(session);
    RunResult res = run_window_impl(input, &exit);
    // Saving at the exit step keeps the session exactly consistent:
    // the state is what a stream offering only res.timesteps frames
    // would have produced.
    save_session(session);
    session.steps += res.timesteps;
    ++session.windows;
    return res;
}

RunResult run_snn(const SnnModel& model, const SpikeTrain& input, EngineConfig config) {
    FunctionalEngine engine(model, config);
    return engine.run(input);
}

}  // namespace sia::snn
