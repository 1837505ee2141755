#include "sim/sia.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/aggregation.hpp"
#include "snn/compute.hpp"
#include "snn/engine.hpp"
#include "snn/layer_state.hpp"

namespace sia::sim {

namespace {

/// Per-timestep, per-channel spike counts of a train (drives the
/// event-driven cycle accounting). Masked popcount over the packed
/// words, O(words) per channel instead of a per-site scan.
std::vector<std::vector<std::int64_t>> channel_spike_counts(const snn::SpikeTrain& train) {
    std::vector<std::vector<std::int64_t>> counts(train.size());
    for (std::size_t t = 0; t < train.size(); ++t) {
        const snn::SpikeMap& m = train[t];
        counts[t].assign(static_cast<std::size_t>(m.channels()), 0);
        const std::int64_t plane = m.height() * m.width();
        for (std::int64_t c = 0; c < m.channels(); ++c) {
            counts[t][static_cast<std::size_t>(c)] =
                m.count_range(c * plane, (c + 1) * plane);
        }
    }
    return counts;
}

std::int64_t bits_to_bytes(std::int64_t bits) noexcept { return (bits + 7) / 8; }

}  // namespace

std::int64_t SiaRunResult::total_cycles() const noexcept {
    std::int64_t c = 0;
    for (const auto& s : layer_stats) c += s.total();
    return c;
}

std::int64_t SiaRunResult::predicted_class(std::int64_t t) const {
    // One comparator convention across engines: first-index-wins.
    return static_cast<std::int64_t>(
        snn::argmax_first(logits_per_step.at(static_cast<std::size_t>(t))));
}

std::int64_t SiaRunResult::predicted() const {
    return static_cast<std::int64_t>(snn::argmax_first(readout));
}

void SiaRunResult::append_chunk(SiaRunResult&& chunk) {
    for (auto& row : chunk.logits_per_step) {
        logits_per_step.push_back(std::move(row));
    }
    if (spike_counts.size() != chunk.spike_counts.size()) {
        spike_counts.assign(chunk.spike_counts.size(), 0);
    }
    for (std::size_t i = 0; i < spike_counts.size(); ++i) {
        spike_counts[i] += chunk.spike_counts[i];
    }
    if (layer_stats.size() != chunk.layer_stats.size()) {
        layer_stats.assign(chunk.layer_stats.size(), LayerCycleStats{});
    }
    for (std::size_t i = 0; i < layer_stats.size(); ++i) {
        layer_stats[i] += chunk.layer_stats[i];
    }
    if (neuron_counts.empty()) neuron_counts = std::move(chunk.neuron_counts);
    timesteps += chunk.timesteps;
}

double SiaRunResult::effective_gops(const SiaConfig& config) const noexcept {
    std::uint64_t dense = 0;
    std::int64_t pl_cycles = 0;
    for (const auto& s : layer_stats) {
        dense += s.dense_ops;
        pl_cycles += s.compute + s.aggregate + s.dma;
    }
    if (pl_cycles == 0) return 0.0;
    const double seconds = static_cast<double>(pl_cycles) / (config.clock_mhz * 1e6);
    return static_cast<double>(dense) / seconds / 1e9;
}

double SiaRunResult::pe_utilization(const SiaConfig& config) const noexcept {
    std::int64_t adds = 0;
    std::int64_t compute_cycles = 0;
    for (const auto& s : layer_stats) {
        adds += s.event_additions;
        compute_cycles += s.compute;
    }
    const double slots = static_cast<double>(compute_cycles) *
                         static_cast<double>(config.pe_count()) * 3.0;
    return slots > 0 ? static_cast<double>(adds) / slots : 0.0;
}

Sia::Sia(const SiaConfig& config, const snn::SnnModel& model,
         const CompiledProgram& program)
    : config_(config), model_(model), program_(program),
      main_wt_cache_(model.layers.size()), skip_wt_cache_(model.layers.size()),
      memory_(config), dma_(config), mmio_(config) {
    model_.validate();
    if (program_.layers.size() != model_.layers.size()) {
        throw std::invalid_argument("Sia: program/model layer count mismatch");
    }
}

const std::vector<std::int8_t>& Sia::main_wt(std::size_t index) {
    auto& slot = main_wt_cache_[index];
    if (slot.empty()) {
        const snn::SnnLayer& layer = model_.layers[index];
        slot = layer.op == snn::LayerOp::kConv
                   ? snn::compute::transpose_conv(layer.main)
                   : snn::compute::transpose_linear(layer.main);
    }
    return slot;
}

const std::vector<std::int8_t>& Sia::skip_wt(std::size_t index) {
    auto& slot = skip_wt_cache_[index];
    if (slot.empty()) {
        slot = snn::compute::transpose_conv(model_.layers[index].skip);
    }
    return slot;
}

namespace {

void init_result(SiaRunResult& res, std::int64_t timesteps, std::int64_t classes,
                 std::size_t layer_count) {
    res.timesteps = timesteps;
    res.steps_offered = timesteps;
    res.exit_reason = snn::ExitReason::kNone;
    res.logits_per_step.assign(
        static_cast<std::size_t>(timesteps),
        std::vector<std::int64_t>(static_cast<std::size_t>(classes), 0));
    res.readout.clear();
    res.layer_stats.assign(layer_count, LayerCycleStats{});
    res.spike_counts.assign(layer_count, 0);
    res.neuron_counts.clear();
}

/// Stamp the final readout of a full (non-segmented) run.
void finish_result(SiaRunResult& res) {
    if (!res.logits_per_step.empty()) res.readout = res.logits_per_step.back();
}

}  // namespace

SiaRunResult Sia::run(const snn::SpikeTrain& input) {
    if (input.empty()) throw std::invalid_argument("Sia::run: empty input train");

    // Single-inference mode owns the whole U1/U2 pair (also recovers a
    // clean partitioning if a previous run_batch threw mid-flight).
    memory_.membrane.partition(1);

    SiaRunResult res;
    init_result(res, static_cast<std::int64_t>(input.size()), model_.classes,
                model_.layers.size());

    std::vector<snn::SpikeTrain> outs(model_.layers.size());

    controller_.reset();
    controller_.transition(CtrlState::kInit);
    for (std::size_t li = 0; li < model_.layers.size(); ++li) {
        run_layer(li, input, outs, res, nullptr);
    }
    controller_.transition(CtrlState::kDone);
    finish_result(res);
    return res;
}

SiaRunResult Sia::run(const snn::SpikeTrain& input, const snn::ExitCriterion& exit) {
    const std::vector<const snn::SpikeTrain*> inputs{&input};
    const std::vector<snn::SessionState*> sessions{nullptr};
    const std::vector<const snn::ExitCriterion*> exits{&exit};
    auto results = run_batch(inputs, sessions, exits);
    return std::move(results.front());
}

SiaRunResult Sia::run(const snn::SpikeTrain& input, snn::SessionState& session,
                      const snn::ExitCriterion& exit) {
    const std::vector<const snn::SpikeTrain*> inputs{&input};
    const std::vector<snn::SessionState*> sessions{&session};
    const std::vector<const snn::ExitCriterion*> exits{&exit};
    auto results = run_batch(inputs, sessions, exits);
    return std::move(results.front());
}

void Sia::prepare_session(snn::SessionState& session) const {
    if (!session.initialized) {
        session.membranes.assign(model_.layers.size(), {});
        session.readout.assign(static_cast<std::size_t>(model_.classes), 0);
        return;
    }
    if (session.membranes.size() != model_.layers.size() ||
        session.readout.size() != static_cast<std::size_t>(model_.classes)) {
        throw std::invalid_argument("Sia: session state/model geometry mismatch");
    }
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        const snn::SnnLayer& layer = model_.layers[i];
        const std::size_t want =
            layer.spiking ? static_cast<std::size_t>(layer.neurons()) : 0;
        if (session.membranes[i].size() != want) {
            throw std::invalid_argument("Sia: session membrane size mismatch");
        }
    }
}

SiaRunResult Sia::run(const snn::SpikeTrain& input, snn::SessionState& session) {
    if (input.empty()) throw std::invalid_argument("Sia::run: empty input train");
    prepare_session(session);
    memory_.membrane.partition(1);

    SiaRunResult res;
    init_result(res, static_cast<std::int64_t>(input.size()), model_.classes,
                model_.layers.size());
    std::vector<snn::SpikeTrain> outs(model_.layers.size());

    controller_.reset();
    controller_.transition(CtrlState::kInit);
    for (std::size_t li = 0; li < model_.layers.size(); ++li) {
        run_layer(li, input, outs, res, &session);
    }
    controller_.transition(CtrlState::kDone);
    finish_result(res);
    session.initialized = true;
    session.steps += res.timesteps;
    ++session.windows;
    return res;
}

std::vector<SiaRunResult> Sia::run_batch(const std::vector<snn::SpikeTrain>& inputs) {
    std::vector<const snn::SpikeTrain*> ptrs;
    ptrs.reserve(inputs.size());
    for (const auto& in : inputs) ptrs.push_back(&in);
    return run_batch(ptrs);
}

std::vector<SiaRunResult> Sia::run_batch(
    const std::vector<const snn::SpikeTrain*>& inputs) {
    return run_batch(inputs, std::vector<snn::SessionState*>(inputs.size(), nullptr));
}

std::vector<SiaRunResult> Sia::run_batch(
    const std::vector<const snn::SpikeTrain*>& inputs,
    const std::vector<snn::SessionState*>& sessions) {
    return run_batch(inputs, sessions,
                     std::vector<const snn::ExitCriterion*>(inputs.size(), nullptr));
}

std::vector<SiaRunResult> Sia::run_batch(
    const std::vector<const snn::SpikeTrain*>& inputs,
    const std::vector<snn::SessionState*>& sessions,
    const std::vector<const snn::ExitCriterion*>& exits) {
    const std::size_t n = inputs.size();
    if (sessions.size() != n) {
        throw std::invalid_argument("Sia::run_batch: inputs/sessions size mismatch");
    }
    if (exits.size() != n) {
        throw std::invalid_argument("Sia::run_batch: inputs/exits size mismatch");
    }
    batch_stats_ = SiaBatchStats{};
    batch_stats_.batch = n;
    batch_stats_.banks = std::max<std::int64_t>(1, config_.membrane_banks);

    std::vector<SiaRunResult> results(n);
    if (n == 0) return results;
    for (const auto* in : inputs) {
        if (in == nullptr || in->empty()) {
            throw std::invalid_argument("Sia::run_batch: empty input train");
        }
    }
    for (snn::SessionState* session : sessions) {
        if (session != nullptr) prepare_session(*session);
    }
    bool any_exit = false;
    for (const snn::ExitCriterion* exit : exits) {
        if (exit == nullptr) continue;
        exit->validate();
        any_exit = any_exit || exit->enabled();
    }

    // RAII: restores single-inference partitioning at scope exit, so a
    // mid-wave throw can never leave a stale multi-context partitioning
    // behind for a subsequent run() — retired items included.
    const PartitionGuard partition_guard(memory_.membrane, batch_stats_.banks);
    batch_stats_.membrane_slice_bytes = memory_.membrane.bank_capacity();
    batch_stats_.membrane_resident = true;
    for (const LayerPlan& plan : program_.layers) {
        if (plan.membrane_bytes > batch_stats_.membrane_slice_bytes) {
            batch_stats_.membrane_resident = false;
            break;
        }
    }
    controller_.reset();

    std::int64_t saved_cycles = 0;
    if (any_exit) {
        run_batch_ragged(inputs, sessions, exits, results, saved_cycles);
    } else {
        run_batch_full(inputs, sessions, results, saved_cycles);
    }

    batch_stats_.retired_at.reserve(n);
    for (const SiaRunResult& r : results) {
        batch_stats_.sequential_cycles += r.total_cycles();
        batch_stats_.steps_executed += r.timesteps;
        batch_stats_.steps_offered += r.steps_offered;
        batch_stats_.retired_at.push_back(r.timesteps);
        if (r.exit_reason != snn::ExitReason::kNone && r.timesteps < r.steps_offered) {
            ++batch_stats_.retired_early;
        }
    }
    batch_stats_.resident_cycles = batch_stats_.sequential_cycles - saved_cycles;
    return results;
}

void Sia::run_batch_full(const std::vector<const snn::SpikeTrain*>& inputs,
                         const std::vector<snn::SessionState*>& sessions,
                         std::vector<SiaRunResult>& results,
                         std::int64_t& saved_cycles) {
    const std::size_t n = inputs.size();
    const auto wave_width = static_cast<std::size_t>(batch_stats_.banks);
    for (std::size_t start = 0; start < n; start += wave_width) {
        const std::size_t count = std::min(n - start, wave_width);
        ++batch_stats_.waves;
        ++batch_stats_.chunk_passes;
        run_wave(inputs.data() + start, sessions.data() + start,
                 results.data() + start, count);
        for (std::size_t s = 0; s < count; ++s) {
            finish_result(results[start + s]);
            snn::SessionState* session = sessions[start + s];
            if (session == nullptr) continue;
            session->initialized = true;
            session->steps += results[start + s].timesteps;
            ++session->windows;
        }
        // Residency savings of this wave: conv kernels streamed once for
        // all `count` members, and the PS invoked each layer once.
        for (std::size_t li = 0; li < model_.layers.size(); ++li) {
            const LayerPlan& plan = program_.layers[li];
            const auto extra = static_cast<std::int64_t>(count - 1);
            if (!plan.mmio) {
                batch_stats_.weight_bytes_streamed += plan.weight_stream_bytes;
                batch_stats_.weight_bytes_sequential +=
                    static_cast<std::int64_t>(count) * plan.weight_stream_bytes;
                saved_cycles += extra * AxiDma::cycles_for(plan.weight_stream_bytes,
                                                           config_);
            }
            saved_cycles += extra * config_.ps_layer_overhead_cycles;
        }
    }
}

void Sia::run_batch_ragged(const std::vector<const snn::SpikeTrain*>& inputs,
                           const std::vector<snn::SessionState*>& sessions,
                           const std::vector<const snn::ExitCriterion*>& exits,
                           std::vector<SiaRunResult>& results,
                           std::int64_t& saved_cycles) {
    const std::size_t n = inputs.size();
    const auto wave_width = static_cast<std::size_t>(batch_stats_.banks);
    constexpr std::size_t kFree = static_cast<std::size_t>(-1);

    // Per-item carried state. The scratch session is what makes slot
    // reuse safe: every segment pass resumes the item's membranes from
    // its scratch and saves them back, so whatever another item left in
    // the bank between this item's segments is never observed. User
    // sessions are copied in at admission and written back only when
    // the item finishes (a mid-batch throw leaves them untouched).
    struct ItemState {
        snn::SessionState scratch;
        std::optional<snn::ExitEvaluator> eval;
        std::int64_t steps_done = 0;
        std::int64_t steps_total = 0;
    };
    std::vector<ItemState> items(n);
    for (std::size_t i = 0; i < n; ++i) {
        ItemState& it = items[i];
        it.steps_total = static_cast<std::int64_t>(inputs[i]->size());
        if (sessions[i] != nullptr) it.scratch = *sessions[i];
        prepare_session(it.scratch);  // presizes fresh scratch state
        if (exits[i] != nullptr && exits[i]->enabled()) {
            // Baseline = the readout carried in at window entry, so
            // session windows exit on their own delta (zeros when
            // stateless — the absolute readout).
            it.eval.emplace(*exits[i], it.scratch.readout);
        }
        init_result(results[i], 0, model_.classes, model_.layers.size());
        results[i].steps_offered = it.steps_total;
    }

    // Ragged wave loop: slots are membrane-bank contexts. Free slots
    // back-fill from the pending queue in admission order (lowest free
    // slot first) at segment boundaries only — both orders are fixed by
    // the batch, never by timing, so the schedule is deterministic.
    std::vector<std::size_t> slot(wave_width, kFree);
    std::size_t next_pending = 0;
    std::size_t finished = 0;
    bool admitted_first_cohort = false;

    std::vector<std::size_t> active;              // occupied slot ids, ascending
    std::vector<snn::SpikeTrain> segments(wave_width);
    std::vector<SiaRunResult> chunk(wave_width);
    std::vector<std::vector<snn::SpikeTrain>> outs(wave_width);

    while (finished < n) {
        for (std::size_t s = 0; s < wave_width && next_pending < n; ++s) {
            if (slot[s] == kFree) {
                slot[s] = next_pending++;
                if (admitted_first_cohort) ++batch_stats_.backfills;
            }
        }
        admitted_first_cohort = true;

        // Segment boundaries: each item runs to its own next evaluation
        // point (or to the end of its train) — a pure function of the
        // item's criterion, independent of its co-batched neighbours.
        active.clear();
        for (std::size_t s = 0; s < wave_width; ++s) {
            if (slot[s] == kFree) continue;
            const std::size_t i = slot[s];
            ItemState& it = items[i];
            const snn::ExitCriterion* exit = exits[i];
            const std::int64_t seg_end =
                it.eval ? std::min(it.steps_total, exit->next_eval_step(it.steps_done))
                        : it.steps_total;
            snn::SpikeTrain& seg = segments[s];
            seg.clear();
            seg.reserve(static_cast<std::size_t>(seg_end - it.steps_done));
            for (std::int64_t t = it.steps_done; t < seg_end; ++t) {
                const snn::SpikeMap& frame = (*inputs[i])[static_cast<std::size_t>(t)];
                if (frame.channels() != model_.input_channels ||
                    frame.height() != model_.input_h ||
                    frame.width() != model_.input_w) {
                    throw std::invalid_argument(
                        "Sia::run_batch: input frame geometry mismatch");
                }
                seg.push_back(frame);
            }
            init_result(chunk[s], seg_end - it.steps_done, model_.classes,
                        model_.layers.size());
            outs[s].assign(model_.layers.size(), {});
            active.push_back(s);
        }

        // One layer-major pass over the active set — the same resident
        // schedule as a full wave, just over segments.
        ++batch_stats_.chunk_passes;
        controller_.transition(CtrlState::kInit);
        for (std::size_t li = 0; li < model_.layers.size(); ++li) {
            for (const std::size_t s : active) {
                memory_.membrane.set_active(static_cast<std::int64_t>(s));
                run_layer(li, segments[s], outs[s], chunk[s],
                          &items[slot[s]].scratch);
            }
        }
        controller_.transition(CtrlState::kDone);

        // Residency savings of this pass: weights streamed once for all
        // active members, the PS invoked once per layer. A pass with a
        // narrowed wave shares across fewer members — that shrinkage is
        // exactly what back-filling recovers.
        const auto count = static_cast<std::int64_t>(active.size());
        for (std::size_t li = 0; li < model_.layers.size(); ++li) {
            const LayerPlan& plan = program_.layers[li];
            const std::int64_t extra = count - 1;
            if (!plan.mmio) {
                batch_stats_.weight_bytes_streamed += plan.weight_stream_bytes;
                batch_stats_.weight_bytes_sequential +=
                    count * plan.weight_stream_bytes;
                saved_cycles += extra * AxiDma::cycles_for(plan.weight_stream_bytes,
                                                           config_);
            }
            saved_cycles += extra * config_.ps_layer_overhead_cycles;
        }

        // Evaluate at the segment boundary; retire exited and completed
        // items, releasing their membrane-bank context for back-fill.
        for (const std::size_t s : active) {
            const std::size_t i = slot[s];
            ItemState& it = items[i];
            it.steps_done += chunk[s].timesteps;
            it.scratch.initialized = true;
            results[i].append_chunk(std::move(chunk[s]));
            snn::ExitReason reason = snn::ExitReason::kNone;
            if (it.eval) {
                reason = it.eval->observe(it.scratch.readout, it.steps_done);
            }
            if (reason == snn::ExitReason::kNone && it.steps_done < it.steps_total) {
                continue;  // more segments to run
            }
            results[i].exit_reason = reason;
            results[i].readout = it.scratch.readout;
            if (sessions[i] != nullptr) {
                snn::SessionState& user = *sessions[i];
                user.membranes = std::move(it.scratch.membranes);
                user.readout = it.scratch.readout;
                user.initialized = true;
                user.steps += it.steps_done;
                ++user.windows;
            }
            slot[s] = kFree;
            ++finished;
        }
    }
    // In the ragged schedule a "wave" is one layer-major segment pass —
    // the granularity at which weights are re-streamed.
    batch_stats_.waves = batch_stats_.chunk_passes;
}

void Sia::run_wave(const snn::SpikeTrain* const* inputs,
                   snn::SessionState* const* sessions, SiaRunResult* results,
                   std::size_t count) {
    // Fresh FSM pass per wave; kDone -> kInit covers waves after the first.
    controller_.transition(CtrlState::kInit);

    std::vector<std::vector<snn::SpikeTrain>> outs(count);
    for (std::size_t s = 0; s < count; ++s) {
        init_result(results[s], static_cast<std::int64_t>(inputs[s]->size()),
                    model_.classes, model_.layers.size());
        outs[s].resize(model_.layers.size());
    }

    // Layer-major over the wave: kernels for layer `li` are resident
    // while every wave member's timestep loop runs over its own membrane
    // context, then the next layer is configured.
    for (std::size_t li = 0; li < model_.layers.size(); ++li) {
        for (std::size_t s = 0; s < count; ++s) {
            memory_.membrane.set_active(static_cast<std::int64_t>(s));
            run_layer(li, *inputs[s], outs[s], results[s], sessions[s]);
        }
    }
    controller_.transition(CtrlState::kDone);
}

void Sia::run_layer(std::size_t index, const snn::SpikeTrain& input,
                    std::vector<snn::SpikeTrain>& outs, SiaRunResult& res,
                    snn::SessionState* session) {
    const snn::SnnLayer& layer = model_.layers[index];
    const auto timesteps = static_cast<std::int64_t>(input.size());
    LayerCycleStats& stats = res.layer_stats[index];
    stats.label = layer.label;
    stats.overhead += config_.ps_layer_overhead_cycles;
    controller_.transition(CtrlState::kLoadConfig);

    const snn::SpikeTrain& in_train =
        layer.input == -1 ? input : outs[static_cast<std::size_t>(layer.input)];
    const snn::SpikeTrain* skip_train = nullptr;
    if (layer.has_skip()) {
        skip_train = layer.skip_src == -1
                         ? &input
                         : &outs[static_cast<std::size_t>(layer.skip_src)];
    }

    snn::SpikeTrain& out_train = outs[index];
    out_train.assign(static_cast<std::size_t>(timesteps),
                     snn::SpikeMap(layer.out_channels, layer.out_h, layer.out_w));

    const LayerPlan& plan = program_.layers[index];
    if (layer.op == snn::LayerOp::kConv) {
        run_conv_layer(index, plan, in_train, skip_train, out_train, stats,
                       res.logits_per_step, session, 0, layer.out_channels);
    } else {
        run_linear_layer(index, plan, in_train, out_train, stats, res.logits_per_step,
                         session, 0, layer.main.out_features);
    }

    res.neuron_counts.push_back(layer.neurons());
    std::int64_t spikes = 0;
    for (const auto& m : out_train) spikes += m.count();
    res.spike_counts[index] = spikes;
}

void Sia::begin_inference() {
    memory_.membrane.partition(1);
    controller_.reset();
    controller_.transition(CtrlState::kInit);
}

void Sia::end_inference() { controller_.transition(CtrlState::kDone); }

void Sia::run_stage(std::size_t first, std::size_t last, const snn::SpikeTrain& input,
                    std::vector<snn::SpikeTrain>& outs, SiaRunResult& res,
                    snn::SessionState* session) {
    begin_inference();
    for (std::size_t li = first; li < last; ++li) {
        run_layer(li, input, outs, res, session);
    }
    end_inference();
}

void Sia::run_layer_slice(std::size_t index, const LayerPlan& plan,
                          const snn::SpikeTrain& in_train,
                          const snn::SpikeTrain* skip_train, snn::SpikeTrain& out_train,
                          LayerCycleStats& stats,
                          std::vector<std::vector<std::int64_t>>& readout,
                          snn::SessionState* session, std::int64_t c0, std::int64_t c1) {
    const snn::SnnLayer& layer = model_.layers[index];
    out_train.assign(in_train.size(),
                     snn::SpikeMap(layer.out_channels, layer.out_h, layer.out_w));
    if (c0 >= c1) return;  // zero-width slice: this shard idles the layer

    stats.label = layer.label;
    stats.overhead += config_.ps_layer_overhead_cycles;
    controller_.transition(CtrlState::kLoadConfig);
    if (layer.op == snn::LayerOp::kConv) {
        run_conv_layer(index, plan, in_train, skip_train, out_train, stats, readout,
                       session, c0, c1);
    } else {
        run_linear_layer(index, plan, in_train, out_train, stats, readout, session,
                         c0, c1);
    }
}

void Sia::run_conv_layer(std::size_t index, const LayerPlan& plan,
                         const snn::SpikeTrain& in_train,
                         const snn::SpikeTrain* skip_train, snn::SpikeTrain& out_train,
                         LayerCycleStats& stats,
                         std::vector<std::vector<std::int64_t>>& readout,
                         snn::SessionState* session, std::int64_t c0, std::int64_t c1) {
    const snn::SnnLayer& layer = model_.layers[index];
    const snn::Branch& b = layer.main;
    const auto timesteps = static_cast<std::int64_t>(in_train.size());
    const std::int64_t neurons = layer.neurons();
    const std::int64_t oh = layer.out_h;
    const std::int64_t ow = layer.out_w;
    const std::int64_t lanes = config_.pe_count();
    // Output-channel slice this instance owns (the full layer for
    // unsharded runs). CHW flat indices make a channel slice the
    // contiguous bit range [c0 * plane, c1 * plane).
    const std::int64_t span = c1 - c0;
    const std::int64_t plane = oh * ow;
    const std::int64_t slice_neurons = span * plane;

    const std::vector<std::int8_t>& wt = main_wt(index);
    const bool has_down_skip = layer.has_skip() && !layer.skip_is_identity;
    static const std::vector<std::int8_t> kNoWeights;
    const std::vector<std::int8_t>& skip_weights =
        has_down_skip ? skip_wt(index) : kNoWeights;

    const auto counts = channel_spike_counts(in_train);
    const auto skip_counts =
        has_down_skip ? channel_spike_counts(*skip_train)
                      : std::vector<std::vector<std::int64_t>>{};

    // Fire scratch for this pass: the slice's CHW SoA banks. Membranes
    // of the first bank_capacity()/2 neurons live in the ping-pong bank
    // model and move between it and the scratch as one span per
    // timestep each way; the rest (spatial tiling) stay host-mirrored in
    // the scratch -- numerically identical, with the re-streaming
    // traffic accounted in the plan's DMA terms.
    snn::LayerState& st = fire_;
    st.init(layer, c0, c1);
    const std::int64_t fit_neurons =
        std::min<std::int64_t>(slice_neurons, memory_.membrane.bank_capacity() / 2);
    const std::span<std::int16_t> banked(st.membrane.data(),
                                         static_cast<std::size_t>(fit_neurons));
    // Resume the carried potentials of a streaming session; a fresh
    // session (or stateless run) starts from the initial potential. A
    // sliced run addresses only its contiguous CHW range of the shared
    // session bank.
    if (session != nullptr && session->initialized) {
        const std::int16_t* resume = session->membranes[index].data() + c0 * plane;
        std::copy(resume, resume + slice_neurons, st.membrane.data());
    } else {
        std::fill(st.membrane.data(), st.membrane.data() + slice_neurons,
                  layer.initial_potential);
    }
    memory_.membrane.write_span(0, banked);
    memory_.membrane.toggle();  // make the initial potentials readable

    // The kernel fires the slice into a slice-geometry map, merged into
    // the full output at bit c0 * plane; an identity skip's source bits
    // are extracted into the same geometry.
    snn::SpikeMap slice_out(span, oh, ow);
    snn::SpikeMap skip_slice;
    if (layer.has_skip() && layer.skip_is_identity) skip_slice = slice_out;

    const std::int64_t wc = SiaConfig::window_cycles(b.kernel);
    const std::int64_t wc_skip = SiaConfig::window_cycles(1);
    // Layer-major schedule: every (tile, chunk) kernel set is streamed
    // exactly once per inference; partial sums across chunks stage in
    // the 128 kB residual memory while the timestep loop runs.
    stats.dma += dma_.transfer(plan.weight_stream_bytes);

    const std::uint64_t dense_per_step =
        static_cast<std::uint64_t>(span * oh * ow * b.in_channels * b.kernel *
                                   b.kernel) *
        2ULL;
    const std::uint64_t skip_dense_per_step =
        has_down_skip ? static_cast<std::uint64_t>(span * oh * ow *
                                                   layer.skip.in_channels) *
                            2ULL
                      : 0ULL;

    for (std::int64_t t = 0; t < timesteps; ++t) {
        controller_.transition(CtrlState::kReadInput);
        stats.dma += dma_.transfer(plan.spike_in_bytes * plan.oc_tiles *
                                   plan.spatial_tiles);
        const snn::SpikeMap& in = in_train[static_cast<std::size_t>(t)];
        snn::compute::conv_psum_scatter(b, wt, in, oh, ow, st.accum(), c0, c1);

        // Weight-memory-chunked PE schedule: the arithmetic above is one
        // event-driven pass (exact int32 adds, order-independent), so
        // the chunk loop only charges each chunk's spike events.
        for (std::int64_t pass = 0; pass < plan.ic_passes; ++pass) {
            const std::int64_t ic0 = pass * plan.ic_chunk;
            const std::int64_t ic1 = std::min(b.in_channels, ic0 + plan.ic_chunk);
            std::int64_t chunk_spikes = 0;
            for (std::int64_t ic = ic0; ic < ic1; ++ic) {
                chunk_spikes += counts[static_cast<std::size_t>(t)]
                                      [static_cast<std::size_t>(ic)];
            }
            for (std::int64_t tile = 0; tile < plan.oc_tiles; ++tile) {
                controller_.transition(CtrlState::kPeCompute);
                const std::int64_t tile_lanes = std::min(lanes, span - tile * lanes);
                stats.compute += chunk_spikes * wc;
                stats.input_spike_events += chunk_spikes;
                stats.event_additions +=
                    chunk_spikes * b.kernel * b.kernel * tile_lanes;
            }
        }
        stats.dense_ops += dense_per_step;

        // Residual path.
        if (layer.has_skip()) {
            const snn::SpikeMap& skip_in = (*skip_train)[static_cast<std::size_t>(t)];
            stats.dma += dma_.transfer(plan.residual_in_bytes);
            if (has_down_skip) {
                snn::compute::conv_psum_scatter(layer.skip, skip_weights, skip_in, oh, ow,
                                                st.skip_accum(), c0, c1);
                std::int64_t skip_spikes = 0;
                for (const auto n : skip_counts[static_cast<std::size_t>(t)]) {
                    skip_spikes += n;
                }
                for (std::int64_t tile = 0; tile < plan.oc_tiles; ++tile) {
                    controller_.transition(CtrlState::kPeCompute);
                    stats.compute += skip_spikes * wc_skip;
                    stats.input_spike_events += skip_spikes;
                    stats.event_additions +=
                        skip_spikes * std::min(lanes, span - tile * lanes);
                }
                stats.dense_ops += skip_dense_per_step;
            } else {
                skip_slice.copy_bits(skip_in, c0 * plane, 0, slice_neurons);
            }
        }

        controller_.transition(CtrlState::kAggregate);
        stats.aggregate += AggregationCore::retire_cycles(
            slice_neurons, config_.aggregation_lanes,
            plan.oc_tiles * config_.aggregation_pipeline_depth);
        memory_.membrane.read_span(0, banked);
        st.fire(layer, skip_slice.raw().data(), slice_out);
        memory_.membrane.write_span(0, banked);
        (void)readout;  // conv layers are always spiking (validated upstream)

        controller_.transition(CtrlState::kWriteOutput);
        out_train[static_cast<std::size_t>(t)].copy_bits(slice_out, 0, c0 * plane,
                                                         slice_neurons);
        // Bit-pack the slice's output spikes through the output BRAM
        // (capacity checked).
        memory_.output_spikes.write_bits(0, slice_out.raw(), slice_neurons);
        stats.dma += dma_.transfer(plan.spike_out_bytes);
        if (plan.membrane_spill) {
            // Legacy DDR-spill schedule (scheduling ablation only).
            stats.dma += dma_.transfer(plan.membrane_spill_bytes);
        }
        memory_.membrane.toggle();
    }

    if (session != nullptr) {
        // Save the end-of-window potentials: after the final toggle the
        // last written values are on the readable bank. Sliced runs
        // write only their disjoint range of the (presized) shared bank.
        auto& mem = session->membranes[index];
        if (mem.size() != static_cast<std::size_t>(neurons)) {
            mem.resize(static_cast<std::size_t>(neurons));
        }
        std::int16_t* saved = mem.data() + c0 * plane;
        memory_.membrane.read_span(0, {saved, static_cast<std::size_t>(fit_neurons)});
        std::copy(st.membrane.data() + fit_neurons, st.membrane.data() + slice_neurons,
                  saved + fit_neurons);
    }
}

void Sia::run_linear_layer(std::size_t index, const LayerPlan& plan,
                           const snn::SpikeTrain& in_train, snn::SpikeTrain& out_train,
                           LayerCycleStats& stats,
                           std::vector<std::vector<std::int64_t>>& readout,
                           snn::SessionState* session, std::int64_t c0,
                           std::int64_t c1) {
    const snn::SnnLayer& layer = model_.layers[index];
    const snn::Branch& b = layer.main;
    const auto timesteps = static_cast<std::int64_t>(in_train.size());
    const std::int64_t lanes = config_.pe_count();
    const std::int64_t features = b.out_features;
    // Output-feature slice this instance owns (the full layer for
    // unsharded runs). Vectors keep the full-F layout; only [c0, c1) is
    // touched, so disjoint slices compose bit-identically.
    const std::int64_t span = c1 - c0;

    const std::vector<std::int8_t>& wt = main_wt(index);
    // Spiking layers keep their potentials host-side in the fire
    // scratch (slice-relative); readout layers accumulate wide logits.
    snn::LayerState& st = fire_;
    st.init(layer, c0, c1);
    std::fill(st.membrane.data(), st.membrane.data() + span, layer.initial_potential);
    std::vector<std::int64_t> acc(static_cast<std::size_t>(features), 0);
    if (session != nullptr && session->initialized) {
        if (layer.spiking) {
            // Resume the carried potentials of the streaming session
            // (only this instance's slice of the shared bank).
            std::copy(session->membranes[index].begin() + c0,
                      session->membranes[index].begin() + c1, st.membrane.data());
        } else {
            // Readout carries across windows: logits keep accumulating.
            const auto hi = std::min<std::int64_t>(
                c1, static_cast<std::int64_t>(session->readout.size()));
            for (std::int64_t f = c0; f < hi; ++f) {
                acc[static_cast<std::size_t>(f)] =
                    session->readout[static_cast<std::size_t>(f)];
            }
        }
    }
    snn::SpikeMap slice_out(span, 1, 1);

    const std::int64_t oc_tiles = (span + lanes - 1) / lanes;
    const std::int64_t wc = SiaConfig::window_cycles(1);
    const std::uint64_t dense_per_step =
        static_cast<std::uint64_t>(b.in_features * span) * 2ULL;

    for (std::int64_t t = 0; t < timesteps; ++t) {
        controller_.transition(CtrlState::kReadInput);
        const snn::SpikeMap& in = in_train[static_cast<std::size_t>(t)];
        const std::int64_t in_spikes = in.count();

        if (plan.mmio) {
            // PS-mediated word path: weights re-streamed per timestep plus
            // spike vector in and result readback (Table I FC calibration).
            stats.mmio += mmio_.transfer(plan.weight_stream_bytes);
            stats.mmio += mmio_.transfer(bits_to_bytes(b.in_features));
            stats.mmio += mmio_.transfer(span * 4);
        } else {
            stats.dma += dma_.transfer(plan.weight_stream_bytes +
                                       bits_to_bytes(b.in_features));
        }

        for (std::int64_t tile = 0; tile < oc_tiles; ++tile) {
            controller_.transition(CtrlState::kPeCompute);
            const std::int64_t tile_lanes = std::min(lanes, span - tile * lanes);
            stats.compute += in_spikes * wc;
            stats.input_spike_events += in_spikes;
            stats.event_additions += in_spikes * tile_lanes;
        }
        snn::compute::linear_psum_scatter(b, wt, in, st.accum(), c0, c1);
        stats.dense_ops += dense_per_step;

        controller_.transition(CtrlState::kAggregate);
        stats.aggregate += AggregationCore::retire_cycles(
            span, config_.aggregation_lanes,
            oc_tiles * config_.aggregation_pipeline_depth);

        if (layer.spiking) {
            st.fire(layer, nullptr, slice_out);
            out_train[static_cast<std::size_t>(t)].copy_bits(slice_out, 0, c0, span);
        } else {
            // Readout accumulation: the accumulation bank keeps the full
            // feature layout, so features index it directly.
            const std::int32_t* psum = st.accum().data();
            auto& row = readout[static_cast<std::size_t>(t)];
            for (std::int64_t f = c0; f < c1; ++f) {
                const auto fi = static_cast<std::size_t>(f);
                acc[fi] += snn::compute::aggregate(psum[f], b.gain[fi], b.bias[fi],
                                                   b.gain_shift);
                if (fi < row.size()) row[fi] = acc[fi];
            }
        }
        controller_.transition(CtrlState::kWriteOutput);
    }

    if (session != nullptr) {
        if (layer.spiking) {
            // Write only this instance's slice of the (presized) shared
            // session bank — sliced shards save disjoint ranges.
            auto& smem = session->membranes[index];
            if (smem.size() != static_cast<std::size_t>(features)) {
                smem.resize(static_cast<std::size_t>(features));
            }
            std::copy(st.membrane.data(), st.membrane.data() + span, smem.begin() + c0);
        } else {
            // Readout layers carry no membranes; the bank is already
            // empty for shared sliced sessions (clear() would race).
            if (!session->membranes[index].empty()) session->membranes[index].clear();
            const auto hi = std::min<std::int64_t>(
                c1, static_cast<std::int64_t>(session->readout.size()));
            for (std::int64_t f = c0; f < hi; ++f) {
                session->readout[static_cast<std::size_t>(f)] =
                    acc[static_cast<std::size_t>(f)];
            }
        }
    }
}

}  // namespace sia::sim
