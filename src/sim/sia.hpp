// Top-level cycle-accurate SIA simulator (Fig. 2 / Fig. 4 / Fig. 5).
//
// Executes a compiled SnnModel layer-major, exactly as the paper's
// implementation flow describes: a layer's spikes and kernels are
// streamed into the block RAMs, the PE array performs event-driven
// spiking convolution for every timestep (membrane potentials ping-pong
// between the U1/U2 banks), results pass through the aggregation core,
// and output spikes are written back — then the next layer runs.
//
// Numerics go through snn::compute (shared with the functional engine):
// partial sums run through the same event-driven scatter kernels, one
// call per layer per timestep (per branch), and the aggregation core's
// fire stage through the same fused kernels via snn::LayerState, one
// call per layer slice per timestep — so the simulated spikes/logits
// are bit-identical to the reference by construction. Membrane
// potentials move between the U1/U2 ping-pong banks and the fire
// scratch as one bulk span per timestep each way. What this class adds
// is the cycle, transfer and occupancy accounting of the hardware,
// which is derived from per-channel spike counts and the LayerPlan
// (weight-memory chunks x output-channel tiles), never from how the
// host performs the arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/axi.hpp"
#include "sim/config.hpp"
#include "sim/controller.hpp"
#include "sim/memory.hpp"
#include "sim/program.hpp"
#include "snn/exit.hpp"
#include "snn/layer_state.hpp"
#include "snn/model.hpp"
#include "snn/session.hpp"
#include "snn/spike.hpp"

namespace sia::sim {

/// Cycle breakdown for one layer, totalled over a whole inference.
struct LayerCycleStats {
    std::string label;
    std::int64_t compute = 0;    ///< PE-array event-driven accumulation
    std::int64_t aggregate = 0;  ///< BN + activation pipeline retirement
    std::int64_t dma = 0;        ///< bulk spike/weight/residual streaming
    std::int64_t mmio = 0;       ///< PS-mediated AXI4-lite word transfers
    std::int64_t overhead = 0;   ///< per-layer PS invocation overhead

    std::int64_t input_spike_events = 0;  ///< spikes processed (x tiles x passes)
    std::int64_t event_additions = 0;     ///< actual weight accumulations
    std::uint64_t dense_ops = 0;          ///< dense CNN-equivalent ops (2/MAC)

    [[nodiscard]] std::int64_t total() const noexcept {
        return compute + aggregate + dma + mmio + overhead;
    }

    /// Accumulate another pass over the same layer (the chunked
    /// early-exit schedule totals per-chunk stats into one run).
    LayerCycleStats& operator+=(const LayerCycleStats& o) noexcept {
        if (label.empty()) label = o.label;
        compute += o.compute;
        aggregate += o.aggregate;
        dma += o.dma;
        mmio += o.mmio;
        overhead += o.overhead;
        input_spike_events += o.input_spike_events;
        event_additions += o.event_additions;
        dense_ops += o.dense_ops;
        return *this;
    }
};

struct SiaRunResult {
    std::vector<std::vector<std::int64_t>> logits_per_step;  ///< [T][classes]
    /// Final accumulated readout after the last integrated timestep.
    std::vector<std::int64_t> readout;
    std::vector<std::int64_t> spike_counts;                  ///< per layer
    std::vector<std::int64_t> neuron_counts;
    std::vector<LayerCycleStats> layer_stats;
    /// Timesteps actually integrated (== steps_offered unless an
    /// ExitCriterion retired the item first).
    std::int64_t timesteps = 0;
    /// Timesteps the input train offered.
    std::int64_t steps_offered = 0;
    /// Why the run stopped (kNone = ran the full offered train).
    snn::ExitReason exit_reason = snn::ExitReason::kNone;

    [[nodiscard]] std::int64_t total_cycles() const noexcept;
    [[nodiscard]] std::int64_t predicted_class(std::int64_t t) const;
    /// Prediction from the final accumulated readout.
    [[nodiscard]] std::int64_t predicted() const;
    /// Accumulate a later chunk of the same item's run (the segmented
    /// early-exit schedule): appends logit rows, adds per-layer stats
    /// and spike counts, advances timesteps.
    void append_chunk(SiaRunResult&& chunk);
    [[nodiscard]] double total_ms(const SiaConfig& config) const noexcept {
        return config.cycles_to_ms(total_cycles());
    }
    /// Dense CNN-equivalent throughput over PL busy time — the GOPS
    /// convention of the paper's Table IV.
    [[nodiscard]] double effective_gops(const SiaConfig& config) const noexcept;
    /// Fraction of PE-array add slots actually used while computing.
    [[nodiscard]] double pe_utilization(const SiaConfig& config) const noexcept;
};

/// Aggregate accounting of one Sia::run_batch call: what the resident
/// schedule shares across each wave versus what N independent sequential
/// runs would pay. Per-item SiaRunResults keep as-if-sequential stats
/// (that is what makes them bit-identical to run()); the amortization
/// lives here.
struct SiaBatchStats {
    std::size_t batch = 0;
    std::int64_t waves = 0;
    std::int64_t banks = 0;  ///< membrane contexts available per wave

    /// Per-context phase-bank slice of the wave partitioning (bytes).
    std::int64_t membrane_slice_bytes = 0;
    /// True when every layer's potentials fit the per-context slice, i.e.
    /// the wave's inferences are genuinely membrane-resident. When false,
    /// overflow potentials are host-mirrored (numerically identical and —
    /// like all membrane traffic — uncharged beyond the plan-based
    /// accounting), so the reported cycle amortization assumes membrane
    /// capacity the partitioned banks do not actually have.
    bool membrane_resident = true;

    /// Conv-kernel DMA traffic of the resident schedule (streamed once
    /// per wave) vs. N independent runs (streamed once per inference).
    std::int64_t weight_bytes_streamed = 0;
    std::int64_t weight_bytes_sequential = 0;

    /// Modeled accelerator cycles: resident = sequential minus the
    /// per-wave-shared weight streaming and PS layer-invocation overhead.
    std::int64_t resident_cycles = 0;
    std::int64_t sequential_cycles = 0;

    /// Sequential-to-resident cycle ratio (>= 1 when batching helps).
    [[nodiscard]] double amortization() const noexcept {
        return resident_cycles > 0
                   ? static_cast<double>(sequential_cycles) /
                         static_cast<double>(resident_cycles)
                   : 1.0;
    }

    // ---- Ragged-retirement accounting (early-exit batches only) ------
    /// Items whose ExitCriterion fired before their offered timesteps.
    std::int64_t retired_early = 0;
    /// Pending items promoted into a freed wave slot mid-batch (fills
    /// after each cohort's initial admission).
    std::int64_t backfills = 0;
    /// Layer-major segment passes executed. The legacy full-T schedule
    /// runs one pass per wave (chunk_passes == waves); the ragged
    /// schedule re-streams weights once per pass, which is the honest
    /// hardware cost of PS-side criterion checks (amortized by
    /// ExitCriterion::check_interval).
    std::int64_t chunk_passes = 0;
    /// Timesteps actually integrated vs offered, summed over the batch.
    std::int64_t steps_executed = 0;
    std::int64_t steps_offered = 0;
    /// Per-item timesteps integrated, in batch order (retired-at-step
    /// accounting; equals the offered length for items that never exit).
    std::vector<std::int64_t> retired_at;
};

class Sia {
public:
    /// `model` and `program` must outlive the Sia instance.
    Sia(const SiaConfig& config, const snn::SnnModel& model,
        const CompiledProgram& program);

    /// Run one inference over the input spike train.
    [[nodiscard]] SiaRunResult run(const snn::SpikeTrain& input);
    /// Early-exit form: the criterion is evaluated at its eligible
    /// steps and the run stops integrating once it fires. Because Sia
    /// executes layer-major (the readout only materializes at the last
    /// layer), an armed criterion runs the timestep range as segments
    /// bounded by the evaluation points, resuming membranes between
    /// segments exactly like a chunked streaming session — logits,
    /// spikes and the exit step are bit-identical to the functional
    /// engine's per-step evaluation; cycle stats reflect the segmented
    /// schedule (per-segment weight re-streaming is the hardware cost
    /// of a PS-side readout check).
    [[nodiscard]] SiaRunResult run(const snn::SpikeTrain& input,
                                   const snn::ExitCriterion& exit);

    /// Stateful-session form: resume the membrane-bank contents and the
    /// carried readout from `session` (a fresh start when it is
    /// uninitialized), run the window, and save the state back. The
    /// representation is shared with snn::FunctionalEngine, so chunked
    /// windows are bit-identical to one monolithic run on either
    /// engine. Cycle stats are per-window. Throws std::invalid_argument
    /// when an initialized session's geometry does not match the model.
    [[nodiscard]] SiaRunResult run(const snn::SpikeTrain& input,
                                   snn::SessionState& session);
    /// Session window with early exit: the criterion evaluates the
    /// window's readout delta, and the saved state reflects the exit
    /// point exactly (the carried SessionState is never corrupted).
    [[nodiscard]] SiaRunResult run(const snn::SpikeTrain& input,
                                   snn::SessionState& session,
                                   const snn::ExitCriterion& exit);

    /// Batched resident execution: weights and the compiled program stay
    /// resident while up to config().membrane_banks inferences share the
    /// accelerator per wave, each owning one membrane context; layers are
    /// time-multiplexed across the wave members. Larger batches run in
    /// ceil(N / membrane_banks) waves.
    ///
    /// Per-item results — spikes, logits, and cycle stats — are
    /// bit-identical to N independent sequential run() calls; what the
    /// resident schedule saves (per-wave weight streaming, per-wave PS
    /// layer invocation) is reported via last_batch_stats() instead of
    /// being folded into the per-item accounting.
    [[nodiscard]] std::vector<SiaRunResult> run_batch(
        const std::vector<snn::SpikeTrain>& inputs);
    /// Pointer form for schedulers slicing a larger batch without copies.
    [[nodiscard]] std::vector<SiaRunResult> run_batch(
        const std::vector<const snn::SpikeTrain*>& inputs);
    /// Session-aware form: sessions[i] (null = stateless) is resumed
    /// into inference i's membrane context at the start of each layer
    /// pass and saved back when the layer's timestep loop retires — the
    /// streaming counterpart of the resident schedule. A batch must not
    /// contain two windows of the same session (their membrane contexts
    /// would race layer-major); serialize windows across run_batch
    /// calls instead, as core::Server's session affinity does.
    [[nodiscard]] std::vector<SiaRunResult> run_batch(
        const std::vector<const snn::SpikeTrain*>& inputs,
        const std::vector<snn::SessionState*>& sessions);
    /// Ragged early-exit form: exits[i] (null or disabled = run item
    /// i's full train) retires item i from its wave the moment its
    /// criterion fires — the membrane-bank context is released and the
    /// freed slot back-fills from the pending queue at the next segment
    /// boundary, so the accelerator never idles a bank on a decided
    /// item. Per-item logits/spikes/steps are bit-identical to
    /// run(input, exit) run alone, for every batch composition (each
    /// item's segment boundaries depend only on its own criterion);
    /// SiaBatchStats reports retired-at-step / back-fill accounting.
    /// When every criterion is null or disabled this is exactly the
    /// legacy full-T wave schedule.
    [[nodiscard]] std::vector<SiaRunResult> run_batch(
        const std::vector<const snn::SpikeTrain*>& inputs,
        const std::vector<snn::SessionState*>& sessions,
        const std::vector<const snn::ExitCriterion*>& exits);

    /// Accounting of the most recent run_batch call.
    [[nodiscard]] const SiaBatchStats& last_batch_stats() const noexcept {
        return batch_stats_;
    }

    // ---- Sharded execution (driven by sim::SiaCluster) ----------------

    /// Open one sharded inference pass: restore single-inference membrane
    /// partitioning and bring the controller FSM to kInit.
    void begin_inference();
    /// Close the controller FSM of a sharded inference pass.
    void end_inference();

    /// Pipeline-stage form of run(): execute the contiguous layers
    /// [first, last) against the per-item `outs`/`res` shared by every
    /// stage of the pipeline — stage s-1 leaves its boundary output in
    /// `outs[first - 1]`, which is this stage's input. Per-layer results
    /// and stats land at their full-model indices, so after the last
    /// stage `res` is bit-identical to a single-Sia run() (including
    /// cycle stats; inter-shard transfer cost is the cluster's to
    /// account). Wraps the pass in begin_inference()/end_inference().
    void run_stage(std::size_t first, std::size_t last, const snn::SpikeTrain& input,
                   std::vector<snn::SpikeTrain>& outs, SiaRunResult& res,
                   snn::SessionState* session);

    /// Channel-parallel form of one layer pass: run layer `index`
    /// restricted to output channels (conv) or features (linear)
    /// [c0, c1), using `plan` — the shard's sliced layer plan — for
    /// tiling and transfer accounting. `out_train` is assigned the full
    /// layer geometry with only the slice's bits set, so the cluster's
    /// all-gather is a word-wise OR across shards; membrane state for
    /// the slice lives in this instance's banks (slice-relative
    /// addressing), and a shared session is read/written only at the
    /// slice's disjoint [c0 * plane, c1 * plane) range. A zero-width
    /// slice assigns an empty-output train and does nothing else.
    /// Callers bracket the per-item layer sequence with
    /// begin_inference()/end_inference().
    void run_layer_slice(std::size_t index, const LayerPlan& plan,
                         const snn::SpikeTrain& in_train,
                         const snn::SpikeTrain* skip_train, snn::SpikeTrain& out_train,
                         LayerCycleStats& stats,
                         std::vector<std::vector<std::int64_t>>& readout,
                         snn::SessionState* session, std::int64_t c0, std::int64_t c1);

    /// Size/validate a session against the model before its first layer
    /// pass touches it (shared with SiaCluster's admission path).
    void prepare_session(snn::SessionState& session) const;

    [[nodiscard]] const Controller& controller() const noexcept { return controller_; }
    [[nodiscard]] const MemoryUnit& memory() const noexcept { return memory_; }
    [[nodiscard]] const SiaConfig& config() const noexcept { return config_; }

private:
    void run_layer(std::size_t index, const snn::SpikeTrain& input,
                   std::vector<snn::SpikeTrain>& outs, SiaRunResult& res,
                   snn::SessionState* session);
    void run_wave(const snn::SpikeTrain* const* inputs,
                  snn::SessionState* const* sessions, SiaRunResult* results,
                  std::size_t count);
    /// The legacy full-T wave loop (no criterion armed). Accumulates the
    /// cycles the resident schedule saved over sequential into
    /// `saved_cycles`.
    void run_batch_full(const std::vector<const snn::SpikeTrain*>& inputs,
                        const std::vector<snn::SessionState*>& sessions,
                        std::vector<SiaRunResult>& results,
                        std::int64_t& saved_cycles);
    /// The ragged segmented schedule (at least one criterion armed).
    void run_batch_ragged(const std::vector<const snn::SpikeTrain*>& inputs,
                          const std::vector<snn::SessionState*>& sessions,
                          const std::vector<const snn::ExitCriterion*>& exits,
                          std::vector<SiaRunResult>& results,
                          std::int64_t& saved_cycles);

    /// Layer bodies, parameterized over the executing plan (the full
    /// program's or a shard's sliced one) and the output-channel /
    /// feature slice [c0, c1) this instance owns. Full-layer callers
    /// pass program_.layers[index] and the whole range.
    void run_conv_layer(std::size_t index, const LayerPlan& plan,
                        const snn::SpikeTrain& in_train,
                        const snn::SpikeTrain* skip_train, snn::SpikeTrain& out_train,
                        LayerCycleStats& stats,
                        std::vector<std::vector<std::int64_t>>& readout,
                        snn::SessionState* session, std::int64_t c0, std::int64_t c1);
    void run_linear_layer(std::size_t index, const LayerPlan& plan,
                          const snn::SpikeTrain& in_train, snn::SpikeTrain& out_train,
                          LayerCycleStats& stats,
                          std::vector<std::vector<std::int64_t>>& readout,
                          snn::SessionState* session, std::int64_t c0, std::int64_t c1);

    /// Per-layer transposed weight layouts, built lazily on first use and
    /// then shared by every inference this instance runs — the host-side
    /// analogue of the weights staying resident in BRAM.
    [[nodiscard]] const std::vector<std::int8_t>& main_wt(std::size_t index);
    [[nodiscard]] const std::vector<std::int8_t>& skip_wt(std::size_t index);

    SiaConfig config_;
    const snn::SnnModel& model_;
    const CompiledProgram& program_;
    std::vector<std::vector<std::int8_t>> main_wt_cache_;
    std::vector<std::vector<std::int8_t>> skip_wt_cache_;
    /// Fire-stage scratch banks, re-inited for every layer pass and
    /// sized by the largest slice this instance has run.
    snn::LayerState fire_;
    Controller controller_;
    MemoryUnit memory_;
    AxiDma dma_;
    AxiLiteMmio mmio_;
    SiaBatchStats batch_stats_;
};

}  // namespace sia::sim
