// Scatter psum kernels against the gather oracle, and FunctionalEngine
// against the per-neuron oracle stepper.
//
// The load-bearing properties: (1) conv_psum_scatter/linear_psum_scatter
// perform the same multiset of exact int32 additions as the gather
// oracles conv_psum/linear_psum, on the whole layer and on any
// output-channel slice, and disjoint slices compose to the full pass —
// so psums, and therefore spikes, membranes and logits, are the same
// whichever schedule (unsharded or channel-sliced) runs them; (2) the
// fused SoA fire kernels (compute::aggregate_fire_*) execute the same
// util/fixed_point lane recipe as the per-neuron fire oracle
// (compute::fire_reference), so the engine matches an oracle stepper
// built on the gather psums and fire_reference bit for bit. The engine
// matrix sweeps densities {0, 1 spike, 5%, 50%, 100%} x stride/padding
// variants x identity/conv skip routing x IF/LIF neurons x
// subtract/zero reset, on both word-aligned and odd ("tail") neuron
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/batch_runner.hpp"
#include "oracle_stepper.hpp"
#include "snn/compute.hpp"
#include "snn/engine.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "util/rng.hpp"

namespace sia::snn {
namespace {

SpikeMap random_map(std::int64_t c, std::int64_t h, std::int64_t w, double density,
                    util::Rng& rng) {
    SpikeMap m(c, h, w);
    if (density >= 1.0) {
        for (std::int64_t i = 0; i < m.size(); ++i) m.set_flat(i, true);
    } else if (density > 0.0) {
        for (std::int64_t i = 0; i < m.size(); ++i) m.set_flat(i, rng.bernoulli(density));
    }
    return m;
}

SpikeMap single_spike_map(std::int64_t c, std::int64_t h, std::int64_t w,
                          std::int64_t flat) {
    SpikeMap m(c, h, w);
    m.set_flat(flat, true);
    return m;
}

Branch random_conv_branch(std::int64_t ic, std::int64_t oc, std::int64_t kernel,
                          std::int64_t stride, std::int64_t padding, util::Rng& rng) {
    Branch b;
    b.in_channels = ic;
    b.out_channels = oc;
    b.kernel = kernel;
    b.stride = stride;
    b.padding = padding;
    b.weights.resize(static_cast<std::size_t>(oc * ic * kernel * kernel));
    for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
    b.gain.assign(static_cast<std::size_t>(oc), 256);
    b.bias.assign(static_cast<std::size_t>(oc), 0);
    return b;
}

/// Output-channel range [begin, end) of a sliced psum call.
struct Slice {
    std::int64_t begin;
    std::int64_t end;
};

/// Partitions of [0, channels) into consecutive disjoint slices: a
/// zero-width slice, a one-channel slice and the remainder; then slices
/// of three channels with a partial last one (channels > 3 and not a
/// multiple of 3 in the callers).
std::vector<std::vector<Slice>> slice_partitions(std::int64_t channels) {
    std::vector<std::vector<Slice>> partitions;
    partitions.push_back({{0, 0}, {0, 1}, {1, 1}, {1, channels}});
    std::vector<Slice> chunked;
    for (std::int64_t c = 0; c < channels; c += 3) {
        chunked.push_back({c, std::min(c + 3, channels)});
    }
    partitions.push_back(chunked);
    return partitions;
}

// ---- Kernel-level equivalence ----

TEST(ScatterKernels, ConvPsumMatrixMatchesGather) {
    util::Rng rng(101);
    const std::int64_t ic = 3;
    const std::int64_t oc = 4;
    const std::int64_t in_h = 7;
    const std::int64_t in_w = 5;
    for (const std::int64_t kernel : {1L, 3L}) {
        for (const std::int64_t stride : {1L, 2L}) {
            for (const std::int64_t padding : {0L, 1L}) {
                const std::int64_t out_h = (in_h + 2 * padding - kernel) / stride + 1;
                const std::int64_t out_w = (in_w + 2 * padding - kernel) / stride + 1;
                if (out_h <= 0 || out_w <= 0) continue;
                const Branch b = random_conv_branch(ic, oc, kernel, stride, padding, rng);
                const auto wt = compute::transpose_conv(b);
                std::vector<SpikeMap> cases;
                for (const double d : {0.0, 0.05, 0.5, 1.0}) {
                    cases.push_back(random_map(ic, in_h, in_w, d, rng));
                }
                cases.push_back(single_spike_map(ic, in_h, in_w, 0));
                cases.push_back(single_spike_map(ic, in_h, in_w, ic * in_h * in_w - 1));
                for (const SpikeMap& in : cases) {
                    std::vector<std::int32_t> gather(
                        static_cast<std::size_t>(out_h * out_w * oc), -1);
                    std::vector<std::int32_t> scatter(
                        static_cast<std::size_t>(out_h * out_w * oc), 7);
                    compute::conv_psum(b, wt, in, out_h, out_w, gather);
                    compute::conv_psum_scatter(b, wt, in, out_h, out_w, scatter);
                    EXPECT_EQ(gather, scatter)
                        << "k=" << kernel << " s=" << stride << " p=" << padding
                        << " spikes=" << in.count();
                    for (const auto& partition : slice_partitions(oc)) {
                        std::vector<std::int32_t> sliced(
                            static_cast<std::size_t>(out_h * out_w * oc), 7);
                        std::int64_t done = 0;
                        for (const Slice& sl : partition) {
                            compute::conv_psum_scatter(b, wt, in, out_h, out_w, sliced,
                                                       sl.begin, sl.end);
                            done = sl.end;
                            // The slices run so far match the oracle; the
                            // channels after them are still untouched.
                            for (std::int64_t site = 0; site < out_h * out_w; ++site) {
                                for (std::int64_t o = 0; o < oc; ++o) {
                                    const auto i =
                                        static_cast<std::size_t>(site * oc + o);
                                    ASSERT_EQ(sliced[i], o < done ? gather[i] : 7)
                                        << "k=" << kernel << " s=" << stride
                                        << " p=" << padding << " slice=[" << sl.begin
                                        << "," << sl.end << ") o=" << o;
                                }
                            }
                        }
                        EXPECT_EQ(sliced, gather);
                    }
                }
            }
        }
    }
}

TEST(ScatterKernels, LinearPsumMatchesGather) {
    util::Rng rng(103);
    Branch b;
    b.in_features = 130;  // straddles two packed words + a tail
    b.out_features = 11;
    b.weights.resize(static_cast<std::size_t>(b.in_features * b.out_features));
    for (auto& w : b.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
    b.gain.assign(static_cast<std::size_t>(b.out_features), 256);
    b.bias.assign(static_cast<std::size_t>(b.out_features), 0);
    const auto wt = compute::transpose_linear(b);

    std::vector<SpikeMap> cases;
    for (const double d : {0.0, 0.05, 0.5, 1.0}) {
        cases.push_back(random_map(1, 1, b.in_features, d, rng));
    }
    cases.push_back(single_spike_map(1, 1, b.in_features, 64));
    for (const SpikeMap& in : cases) {
        std::vector<std::int32_t> gather(static_cast<std::size_t>(b.out_features), -1);
        std::vector<std::int32_t> scatter(static_cast<std::size_t>(b.out_features), 7);
        compute::linear_psum(b, wt, in, gather);
        compute::linear_psum_scatter(b, wt, in, scatter);
        EXPECT_EQ(gather, scatter) << "spikes=" << in.count();
        for (const auto& partition : slice_partitions(b.out_features)) {
            std::vector<std::int32_t> sliced(static_cast<std::size_t>(b.out_features), 7);
            for (const Slice& sl : partition) {
                compute::linear_psum_scatter(b, wt, in, sliced, sl.begin, sl.end);
                for (std::int64_t f = 0; f < b.out_features; ++f) {
                    const auto i = static_cast<std::size_t>(f);
                    ASSERT_EQ(sliced[i], f < sl.end ? gather[i] : 7)
                        << "slice=[" << sl.begin << "," << sl.end << ") f=" << f;
                }
            }
            EXPECT_EQ(sliced, gather) << "spikes=" << in.count();
        }
    }
}

// ---- Engine-level equivalence matrix ----

/// conv stem -> residual block (identity skip) -> strided downsample
/// (conv skip) -> spiking FC -> readout. Exercises every psum site:
/// main conv, skip conv, linear, and the identity-skip fast path.
SnnModel matrix_model(NeuronKind neuron, ResetMode reset, util::Rng& rng) {
    SnnModel model;
    model.input_channels = 3;
    model.input_h = 8;
    model.input_w = 8;
    model.classes = 4;

    const auto tune = [&](SnnLayer& l) {
        l.neuron = neuron;
        l.reset = reset;
        l.leak_shift = 3;
    };

    SnnLayer stem;
    stem.op = LayerOp::kConv;
    stem.label = "stem";
    stem.input = -1;
    stem.main = random_conv_branch(3, 8, 3, 1, 1, rng);
    stem.out_channels = 8;
    stem.out_h = stem.out_w = 8;
    stem.in_h = stem.in_w = 8;
    tune(stem);
    model.layers.push_back(stem);

    SnnLayer res;
    res.op = LayerOp::kConv;
    res.label = "res";
    res.input = 0;
    res.main = random_conv_branch(8, 8, 3, 1, 1, rng);
    res.skip_src = 0;
    res.skip_is_identity = true;
    res.identity_skip.charge = 120;
    res.out_channels = 8;
    res.out_h = res.out_w = 8;
    res.in_h = res.in_w = 8;
    tune(res);
    model.layers.push_back(res);

    SnnLayer down;
    down.op = LayerOp::kConv;
    down.label = "down";
    down.input = 1;
    down.main = random_conv_branch(8, 16, 3, 2, 1, rng);
    down.skip_src = 1;
    down.skip_is_identity = false;
    down.skip = random_conv_branch(8, 16, 1, 2, 0, rng);
    down.out_channels = 16;
    down.out_h = down.out_w = 4;
    down.in_h = down.in_w = 8;
    tune(down);
    model.layers.push_back(down);

    SnnLayer fc;
    fc.op = LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 2;
    fc.main.in_features = 16 * 4 * 4;
    fc.main.out_features = 10;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 10));
    for (auto& w : fc.main.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
    fc.main.gain.assign(10, 256);
    fc.main.bias.assign(10, 0);
    fc.out_channels = 10;
    tune(fc);
    model.layers.push_back(fc);

    SnnLayer readout;
    readout.op = LayerOp::kLinear;
    readout.label = "readout";
    readout.input = 3;
    readout.spiking = false;
    readout.main.in_features = 10;
    readout.main.out_features = 4;
    readout.main.weights.resize(40);
    for (auto& w : readout.main.weights) {
        w = static_cast<std::int8_t>(rng.integer(-128, 127));
    }
    readout.main.gain.assign(4, 256);
    readout.main.bias.assign(4, 0);
    readout.out_channels = 4;
    model.layers.push_back(readout);
    return model;
}

/// As matrix_model but with awkward layer sizes that exercise the fused
/// kernels' 64-lane tail handling: 125 neurons (one full spike word +
/// a 61-bit tail, channel boundaries mid-word since the plane is 25),
/// 63 neurons (a single sub-word map), a 13-neuron spiking FC. Same
/// routing coverage: identity skip, conv skip, spiking FC, readout.
SnnModel tail_model(NeuronKind neuron, ResetMode reset, util::Rng& rng) {
    SnnModel model;
    model.input_channels = 3;
    model.input_h = 5;
    model.input_w = 5;
    model.classes = 3;

    const auto tune = [&](SnnLayer& l) {
        l.neuron = neuron;
        l.reset = reset;
        l.leak_shift = 3;
    };

    SnnLayer stem;
    stem.op = LayerOp::kConv;
    stem.label = "stem";
    stem.input = -1;
    stem.main = random_conv_branch(3, 5, 3, 1, 1, rng);
    stem.out_channels = 5;
    stem.out_h = stem.out_w = 5;
    stem.in_h = stem.in_w = 5;
    tune(stem);
    model.layers.push_back(stem);

    SnnLayer res;
    res.op = LayerOp::kConv;
    res.label = "res";
    res.input = 0;
    res.main = random_conv_branch(5, 5, 3, 1, 1, rng);
    res.skip_src = 0;
    res.skip_is_identity = true;
    res.identity_skip.charge = 120;
    res.out_channels = 5;
    res.out_h = res.out_w = 5;
    res.in_h = res.in_w = 5;
    tune(res);
    model.layers.push_back(res);

    SnnLayer down;
    down.op = LayerOp::kConv;
    down.label = "down";
    down.input = 1;
    down.main = random_conv_branch(5, 7, 3, 2, 1, rng);
    down.skip_src = 1;
    down.skip_is_identity = false;
    down.skip = random_conv_branch(5, 7, 1, 2, 0, rng);
    down.out_channels = 7;
    down.out_h = down.out_w = 3;
    down.in_h = down.in_w = 5;
    tune(down);
    model.layers.push_back(down);

    SnnLayer fc;
    fc.op = LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 2;
    fc.main.in_features = 7 * 3 * 3;
    fc.main.out_features = 13;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 13));
    for (auto& w : fc.main.weights) w = static_cast<std::int8_t>(rng.integer(-128, 127));
    fc.main.gain.assign(13, 256);
    fc.main.bias.assign(13, 0);
    fc.out_channels = 13;
    tune(fc);
    model.layers.push_back(fc);

    SnnLayer readout;
    readout.op = LayerOp::kLinear;
    readout.label = "readout";
    readout.input = 3;
    readout.spiking = false;
    readout.main.in_features = 13;
    readout.main.out_features = 3;
    readout.main.weights.resize(39);
    for (auto& w : readout.main.weights) {
        w = static_cast<std::int8_t>(rng.integer(-128, 127));
    }
    readout.main.gain.assign(3, 256);
    readout.main.bias.assign(3, 0);
    readout.out_channels = 3;
    model.layers.push_back(readout);
    return model;
}

/// Conv-skip layer on a channel-uniform plane (8x8 = exactly one
/// 64-neuron word per channel): the fused kernels then take the
/// per-word coefficient-broadcast fast path for BOTH the main and the
/// skip aggregate (kUniform + conv skip), which no other model in this
/// file reaches — matrix_model's conv skip has plane 16, tail_model's
/// plane 9.
SnnModel uniform_skip_model(NeuronKind neuron, ResetMode reset, util::Rng& rng) {
    SnnModel model;
    model.input_channels = 3;
    model.input_h = 8;
    model.input_w = 8;
    model.classes = 3;

    const auto tune = [&](SnnLayer& l) {
        l.neuron = neuron;
        l.reset = reset;
        l.leak_shift = 3;
    };

    SnnLayer stem;
    stem.op = LayerOp::kConv;
    stem.label = "stem";
    stem.input = -1;
    stem.main = random_conv_branch(3, 4, 3, 1, 1, rng);
    stem.out_channels = 4;
    stem.out_h = stem.out_w = 8;
    stem.in_h = stem.in_w = 8;
    tune(stem);
    model.layers.push_back(stem);

    SnnLayer proj;
    proj.op = LayerOp::kConv;
    proj.label = "proj";
    proj.input = 0;
    proj.main = random_conv_branch(4, 6, 3, 1, 1, rng);
    proj.skip_src = 0;
    proj.skip_is_identity = false;
    proj.skip = random_conv_branch(4, 6, 1, 1, 0, rng);
    proj.out_channels = 6;
    proj.out_h = proj.out_w = 8;
    proj.in_h = proj.in_w = 8;
    tune(proj);
    model.layers.push_back(proj);

    SnnLayer readout;
    readout.op = LayerOp::kLinear;
    readout.label = "readout";
    readout.input = 1;
    readout.spiking = false;
    readout.main.in_features = 6 * 8 * 8;
    readout.main.out_features = 3;
    readout.main.weights.resize(static_cast<std::size_t>(6 * 8 * 8 * 3));
    for (auto& w : readout.main.weights) {
        w = static_cast<std::int8_t>(rng.integer(-128, 127));
    }
    readout.main.gain.assign(3, 256);
    readout.main.bias.assign(3, 0);
    readout.out_channels = 3;
    model.layers.push_back(readout);
    return model;
}

SpikeTrain matrix_train(const SnnModel& model, double density, bool single_spike,
                        util::Rng& rng) {
    SpikeTrain train;
    for (std::int64_t t = 0; t < 6; ++t) {
        if (single_spike) {
            train.push_back(single_spike_map(
                model.input_channels, model.input_h, model.input_w,
                rng.integer(0, model.input_channels * model.input_h * model.input_w - 1)));
        } else {
            train.push_back(
                random_map(model.input_channels, model.input_h, model.input_w, density, rng));
        }
    }
    return train;
}

void expect_same_run(const SnnModel& model, const SpikeTrain& train) {
    // Reference: the oracle stepper (gather psums + the per-neuron fire
    // loop). The engine's fused fire kernels must match it at every step.
    struct Variant {
        const char* name;
        EngineConfig config;
    };
    const std::vector<Variant> variants = {
        {"vector", {}},
    };
    testing::OracleStepper reference(model);
    std::vector<std::unique_ptr<FunctionalEngine>> engines;
    for (const Variant& v : variants) {
        engines.push_back(std::make_unique<FunctionalEngine>(model, v.config));
    }

    // Step-level comparison so a divergence pinpoints its first timestep.
    for (std::size_t t = 0; t < train.size(); ++t) {
        reference.step(train[t]);
        for (std::size_t e = 0; e < engines.size(); ++e) {
            FunctionalEngine& engine = *engines[e];
            engine.step(train[t]);
            for (std::size_t l = 0; l < model.layers.size(); ++l) {
                ASSERT_TRUE(reference.layer_spikes(l) == engine.layer_spikes(l))
                    << variants[e].name << " t=" << t << " layer=" << l;
                const auto mr = reference.membrane(l);
                const auto me = engine.membrane(l);
                ASSERT_TRUE(std::equal(mr.begin(), mr.end(), me.begin(), me.end()))
                    << variants[e].name << " t=" << t << " layer=" << l;
            }
            ASSERT_EQ(reference.readout(), engine.readout())
                << variants[e].name << " t=" << t;
        }
    }

    // Whole-run results (fresh engines through run()).
    const testing::OracleStepper::Run ref = testing::OracleStepper::run(model, train);
    for (const Variant& v : variants) {
        const RunResult got = run_snn(model, train, v.config);
        EXPECT_EQ(ref.logits_per_step, got.logits_per_step) << v.name;
        EXPECT_EQ(ref.spike_counts, got.spike_counts) << v.name;
    }
}

TEST(DispatchEquivalence, DensityNeuronSkipMatrix) {
    util::Rng rng(202);
    for (const NeuronKind neuron : {NeuronKind::kIf, NeuronKind::kLif}) {
        for (const ResetMode reset : {ResetMode::kSubtract, ResetMode::kZero}) {
            const SnnModel model = matrix_model(neuron, reset, rng);
            expect_same_run(model, matrix_train(model, 0.0, false, rng));
            expect_same_run(model, matrix_train(model, 0.0, true, rng));  // 1 spike/step
            expect_same_run(model, matrix_train(model, 0.05, false, rng));
            expect_same_run(model, matrix_train(model, 0.5, false, rng));
            expect_same_run(model, matrix_train(model, 1.0, false, rng));
        }
    }
}

TEST(DispatchEquivalence, TailMaskDensityNeuronSkipMatrix) {
    // Odd neuron counts: every layer ends mid-word, so the fused fire
    // kernels' padded lanes and tail masking are on the critical path.
    util::Rng rng(203);
    for (const NeuronKind neuron : {NeuronKind::kIf, NeuronKind::kLif}) {
        for (const ResetMode reset : {ResetMode::kSubtract, ResetMode::kZero}) {
            const SnnModel model = tail_model(neuron, reset, rng);
            expect_same_run(model, matrix_train(model, 0.0, false, rng));
            expect_same_run(model, matrix_train(model, 0.0, true, rng));  // 1 spike/step
            expect_same_run(model, matrix_train(model, 0.05, false, rng));
            expect_same_run(model, matrix_train(model, 0.5, false, rng));
            expect_same_run(model, matrix_train(model, 1.0, false, rng));
        }
    }
}

TEST(DispatchEquivalence, UniformPlaneConvSkipMatrix) {
    // Channel-uniform fused path with a residual downsample branch.
    util::Rng rng(204);
    for (const NeuronKind neuron : {NeuronKind::kIf, NeuronKind::kLif}) {
        for (const ResetMode reset : {ResetMode::kSubtract, ResetMode::kZero}) {
            const SnnModel model = uniform_skip_model(neuron, reset, rng);
            expect_same_run(model, matrix_train(model, 0.0, true, rng));
            expect_same_run(model, matrix_train(model, 0.05, false, rng));
            expect_same_run(model, matrix_train(model, 0.5, false, rng));
            expect_same_run(model, matrix_train(model, 1.0, false, rng));
        }
    }
}

// ---- Kernel counters ----

TEST(DispatchCounters, ScatterStepsAndInputDensity) {
    util::Rng rng(303);
    const SnnModel model = matrix_model(NeuronKind::kIf, ResetMode::kSubtract, rng);
    SpikeTrain train = matrix_train(model, 0.02, false, rng);  // sparse steps
    train.push_back(random_map(model.input_channels, model.input_h, model.input_w, 1.0,
                               rng));  // one saturated step
    const auto steps = static_cast<std::int64_t>(train.size());

    FunctionalEngine engine(model);
    for (const auto& frame : train) engine.step(frame);

    // Every layer runs every step through the scatter kernels, whatever
    // the density; the gather counter stays 0.
    for (std::size_t l = 0; l < model.layers.size(); ++l) {
        EXPECT_EQ(engine.dispatch_stats(l).scatter_steps, steps) << l;
        EXPECT_EQ(engine.dispatch_stats(l).dense_steps, 0) << l;
    }
    const LayerDispatchStats& stem = engine.dispatch_stats(0);
    EXPECT_EQ(stem.input_sites,
              steps * model.input_channels * model.input_h * model.input_w);
    std::int64_t spikes = 0;
    for (const auto& frame : train) spikes += frame.count();
    EXPECT_EQ(stem.input_spikes, spikes);
    EXPECT_NEAR(stem.mean_input_density(),
                static_cast<double>(spikes) / static_cast<double>(stem.input_sites),
                1e-12);

    // run() surfaces the counters; reset() clears them.
    const RunResult res = engine.run(train);
    ASSERT_EQ(res.layer_dispatch.size(), model.layers.size());
    EXPECT_EQ(res.layer_dispatch[0].scatter_steps, steps);
    EXPECT_EQ(res.layer_dispatch[0].dense_steps, 0);
    engine.reset();
    EXPECT_EQ(engine.dispatch_stats(0).scatter_steps, 0);
    EXPECT_EQ(engine.dispatch_stats(0).input_sites, 0);
}

// ---- BatchRunner plumbing ----

TEST(BatchRunnerDispatch, EngineConfigPreservesBitExactness) {
    util::Rng rng(505);
    const SnnModel model = matrix_model(NeuronKind::kLif, ResetMode::kSubtract, rng);
    std::vector<SpikeTrain> batch;
    for (int i = 0; i < 6; ++i) {
        batch.push_back(matrix_train(model, 0.02 + 0.2 * i, false, rng));
    }
    std::vector<core::Request> requests;
    for (const auto& train : batch) requests.push_back(core::Request::view_train(train));

    core::BatchRunner runner(model, {.threads = 2});
    const auto results = runner.run(requests);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto ref = testing::OracleStepper::run(model, batch[i]);
        EXPECT_EQ(ref.logits_per_step, results[i].logits_per_step) << i;
        EXPECT_EQ(ref.spike_counts, results[i].spike_counts) << i;
    }
}

}  // namespace
}  // namespace sia::snn
