// FunctionalEngine hot-path bench: the engine (event-driven scatter
// psum + fused fire) against the gather oracle kernel, swept over spike
// density x layer shape (VGG-11 / ResNet-18 conv blocks + a
// pool-unrolled-style FC), plus the fire-stage sweep — the fused
// vectorized aggregate+fire kernel against the per-neuron fire oracle.
//
// Per (shape, density) it times, over the same T=16 input maps: a whole
// FunctionalEngine::step, the scatter psum kernel alone
// (compute::conv_psum_scatter / linear_psum_scatter, what the step runs)
// and the gather oracle kernel alone (compute::conv_psum / linear_psum,
// the tests' reference). The two kernel columns record the trade of
// the one-psum-path design: scatter cost scales with spikes, gather
// cost with sites, so gather catches up only as maps fill. The fire
// sweep precomputes the 16 steps' CHW psum banks once and then times
// the fire stage alone over them: compute::aggregate_fire_dense against
// compute::fire_reference.
//
// Every rate is the median of kRepeats timed repeats (each repeat runs
// whole passes until --min-ms elapses); min and max are recorded next
// to it. Prints steps/s and emits machine-readable BENCH_ENGINE.json
// (psum rows in "results", the fire-stage sweep in "fire_results").
// With --check, exits nonzero if, on any conv shape at <= 5% density,
// the median whole engine step is slower than the median gather kernel
// alone OR the median fused fire kernel is slower than the median fire
// oracle (the CI perf-smoke gates: at paper-realistic spike rates
// neither may lose to its baseline).
//
// Flags: --quick (reduced sweep), --check, --out <path>,
//        --min-ms <per-repeat milliseconds>.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "snn/compute.hpp"
#include "snn/engine.hpp"
#include "snn/layer_state.hpp"
#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace sia;

struct BenchShape {
    std::string name;
    bool conv = true;
    // Conv geometry.
    std::int64_t ic = 0, oc = 0, in_hw = 0, kernel = 3, stride = 1, padding = 1;
    // Linear geometry (input is [1, in_feat_h, in_feat_w]).
    std::int64_t in_feat_h = 0, in_feat_w = 0, out_features = 0;
};

snn::SnnModel make_model(const BenchShape& s, util::Rng& rng) {
    snn::SnnModel model;
    model.name = s.name;
    model.classes = 1;
    snn::SnnLayer layer;
    layer.label = s.name;
    layer.input = -1;
    layer.spiking = true;
    if (s.conv) {
        model.input_channels = s.ic;
        model.input_h = s.in_hw;
        model.input_w = s.in_hw;
        layer.op = snn::LayerOp::kConv;
        layer.main.in_channels = s.ic;
        layer.main.out_channels = s.oc;
        layer.main.kernel = s.kernel;
        layer.main.stride = s.stride;
        layer.main.padding = s.padding;
        layer.main.weights.resize(
            static_cast<std::size_t>(s.oc * s.ic * s.kernel * s.kernel));
        layer.main.gain.assign(static_cast<std::size_t>(s.oc), 256);
        layer.main.bias.assign(static_cast<std::size_t>(s.oc), 0);
        layer.out_channels = s.oc;
        layer.out_h = (s.in_hw + 2 * s.padding - s.kernel) / s.stride + 1;
        layer.out_w = layer.out_h;
        layer.in_h = s.in_hw;
        layer.in_w = s.in_hw;
    } else {
        model.input_channels = 1;
        model.input_h = s.in_feat_h;
        model.input_w = s.in_feat_w;
        layer.op = snn::LayerOp::kLinear;
        layer.main.in_features = s.in_feat_h * s.in_feat_w;
        layer.main.out_features = s.out_features;
        layer.main.weights.resize(
            static_cast<std::size_t>(layer.main.in_features * s.out_features));
        layer.main.gain.assign(static_cast<std::size_t>(s.out_features), 256);
        layer.main.bias.assign(static_cast<std::size_t>(s.out_features), 0);
        layer.out_channels = s.out_features;
    }
    for (auto& w : layer.main.weights) {
        w = static_cast<std::int8_t>(rng.integer(-32, 31));
    }
    model.layers.push_back(std::move(layer));
    return model;
}

std::vector<snn::SpikeMap> make_inputs(const snn::SnnModel& model, double density,
                                       std::int64_t timesteps, util::Rng& rng) {
    std::vector<snn::SpikeMap> inputs(
        static_cast<std::size_t>(timesteps),
        snn::SpikeMap(model.input_channels, model.input_h, model.input_w));
    for (auto& map : inputs) {
        for (std::int64_t i = 0; i < map.size(); ++i) {
            if (rng.bernoulli(density)) map.set_flat(i, true);
        }
    }
    return inputs;
}

/// Median, min and max steps/s over the timed repeats.
struct Rate {
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

constexpr int kRepeats = 5;

/// Steps/s of `pass`, which runs `steps_per_pass` steps, over kRepeats
/// repeats. Each repeat runs the pass until `min_ms` elapses; the
/// median means a scheduler stall inside one or two repeats cannot move
/// the reading (measurements run on shared CI runners, and a fast step
/// here is microseconds).
template <typename Pass>
Rate steps_per_sec(Pass&& pass, std::int64_t steps_per_pass, double min_ms) {
    pass();  // warm caches + page in
    std::vector<double> rates;
    for (int rep = 0; rep < kRepeats; ++rep) {
        const util::WallTimer timer;
        std::int64_t steps = 0;
        double elapsed = 0.0;
        do {
            pass();
            steps += steps_per_pass;
            elapsed = timer.millis();
        } while (elapsed < min_ms);
        rates.push_back(1e3 * static_cast<double>(steps) / elapsed);
    }
    std::sort(rates.begin(), rates.end());
    return {rates[rates.size() / 2], rates.front(), rates.back()};
}

/// Whole FunctionalEngine::step throughput.
Rate measure_engine(const snn::SnnModel& model, const std::vector<snn::SpikeMap>& inputs,
                    double min_ms) {
    snn::FunctionalEngine engine(model);
    return steps_per_sec(
        [&] {
            for (const auto& in : inputs) engine.step(in);
        },
        static_cast<std::int64_t>(inputs.size()), min_ms);
}

/// Psum-kernel-only throughput of the layer: the scatter kernel the
/// engine runs, or the gather oracle.
Rate measure_kernel(const snn::SnnModel& model, bool gather,
                    const std::vector<snn::SpikeMap>& inputs, double min_ms) {
    const snn::SnnLayer& layer = model.layers.front();
    const bool conv = layer.op == snn::LayerOp::kConv;
    const auto wt = conv ? snn::compute::transpose_conv(layer.main)
                         : snn::compute::transpose_linear(layer.main);
    std::vector<std::int32_t> psum(static_cast<std::size_t>(layer.neurons()));
    const auto pass = [&] {
        for (const auto& in : inputs) {
            if (conv && gather) {
                snn::compute::conv_psum(layer.main, wt, in, layer.out_h, layer.out_w,
                                        psum);
            } else if (conv) {
                snn::compute::conv_psum_scatter(layer.main, wt, in, layer.out_h,
                                                layer.out_w, psum);
            } else if (gather) {
                snn::compute::linear_psum(layer.main, wt, in, psum);
            } else {
                snn::compute::linear_psum_scatter(layer.main, wt, in, psum);
            }
        }
    };
    return steps_per_sec(pass, static_cast<std::int64_t>(inputs.size()), min_ms);
}

struct FireRates {
    Rate fused;      ///< compute::aggregate_fire_dense
    Rate reference;  ///< compute::fire_reference
};

/// Fire-stage-only throughput over the inputs' precomputed CHW psum
/// banks (the bench layers are IF neurons with no skip).
FireRates measure_fire(const snn::SnnModel& model,
                       const std::vector<snn::SpikeMap>& inputs, double min_ms) {
    const snn::SnnLayer& layer = model.layers.front();
    const bool conv = layer.op == snn::LayerOp::kConv;
    const auto wt = conv ? snn::compute::transpose_conv(layer.main)
                         : snn::compute::transpose_linear(layer.main);
    snn::LayerState st;
    st.init(layer);
    std::vector<snn::simd::AlignedVec<std::int32_t>> banks;
    for (const auto& in : inputs) {
        if (conv) {
            snn::compute::conv_psum_scatter(layer.main, wt, in, layer.out_h, layer.out_w,
                                            st.accum());
        } else {
            snn::compute::linear_psum_scatter(layer.main, wt, in, st.accum());
        }
        if (st.interleaved) {
            snn::compute::transpose_hwc_to_chw(st.psum_hwc.data(), st.psum.data(),
                                               st.channels, st.plane, st.stride);
        }
        auto& bank = banks.emplace_back(static_cast<std::size_t>(st.padded));
        std::copy(st.psum.data(), st.psum.data() + st.padded, bank.data());
    }
    snn::SpikeMap out(layer.out_channels, layer.out_h, layer.out_w);
    const auto steps = static_cast<std::int64_t>(inputs.size());

    snn::compute::FireArgs args = st.fire_args(layer, nullptr);
    FireRates rates;
    rates.fused = steps_per_sec(
        [&] {
            for (const auto& bank : banks) {
                args.psum = bank.data();
                snn::compute::aggregate_fire_dense(args, out);
            }
        },
        steps, min_ms);
    std::vector<std::int16_t> membrane(static_cast<std::size_t>(layer.neurons()), 0);
    rates.reference = steps_per_sec(
        [&] {
            for (const auto& bank : banks) {
                snn::compute::fire_reference(layer, bank.data(), nullptr, nullptr,
                                             membrane.data(), out);
            }
        },
        steps, min_ms);
    return rates;
}

struct ResultRow {
    std::string shape;
    bool conv = true;
    double density = 0.0;
    double measured_density = 0.0;
    Rate engine;          ///< whole step: scatter psum + fused fire
    Rate scatter_psum;    ///< scatter kernel alone
    Rate gather_psum;     ///< gather oracle kernel alone
    FireRates fire;       ///< fire stage alone: fused kernel vs oracle
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// `"<name>": median, "<name>_min": min, "<name>_max": max`.
void write_rate(std::ostream& out, const char* name, const Rate& r) {
    out << ", \"" << name << "\": " << r.median << ", \"" << name << "_min\": " << r.min
        << ", \"" << name << "_max\": " << r.max;
}

void write_json(const std::string& path, const std::vector<ResultRow>& rows, bool quick) {
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::cerr << "engine_hotpath: cannot open " << path << "\n";
        std::exit(EXIT_FAILURE);
    }
    out << "{\n  \"bench\": \"engine_hotpath\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"repeats\": " << kRepeats << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ResultRow& r = rows[i];
        out << "    {\"shape\": \"" << r.shape << "\", \"kind\": \""
            << (r.conv ? "conv" : "linear") << "\", \"density\": " << r.density
            << ", \"measured_density\": " << r.measured_density;
        write_rate(out, "engine_steps_per_sec", r.engine);
        write_rate(out, "scatter_psum_steps_per_sec", r.scatter_psum);
        write_rate(out, "gather_psum_steps_per_sec", r.gather_psum);
        out << ", \"scatter_speedup\": "
            << ratio(r.scatter_psum.median, r.gather_psum.median)
            << ", \"engine_vs_gather\": " << ratio(r.engine.median, r.gather_psum.median)
            << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"fire_results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ResultRow& r = rows[i];
        out << "    {\"shape\": \"" << r.shape << "\", \"kind\": \""
            << (r.conv ? "conv" : "linear") << "\", \"density\": " << r.density;
        write_rate(out, "reference_fire_steps_per_sec", r.fire.reference);
        write_rate(out, "fused_fire_steps_per_sec", r.fire.fused);
        out << ", \"fire_speedup\": " << ratio(r.fire.fused.median, r.fire.reference.median)
            << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool check = false;
    double min_ms = 0.0;  // 0 = pick by sweep size
    std::string out_path = "BENCH_ENGINE.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--min-ms") == 0 && i + 1 < argc) {
            min_ms = std::atof(argv[++i]);
        } else {
            std::cerr << "usage: engine_hotpath [--quick] [--check] [--out <path>] "
                         "[--min-ms <ms>]\n";
            return EXIT_FAILURE;
        }
    }
    if (min_ms <= 0.0) min_ms = quick ? 50.0 : 200.0;

    std::vector<BenchShape> shapes = {
        {.name = "vgg_conv3x3_64c_32px", .ic = 64, .oc = 64, .in_hw = 32},
        {.name = "vgg_conv3x3_128c_16px", .ic = 128, .oc = 128, .in_hw = 16},
        {.name = "vgg_conv3x3_256c_8px", .ic = 256, .oc = 256, .in_hw = 8},
        {.name = "res_down3x3_64to128_s2",
         .ic = 64,
         .oc = 128,
         .in_hw = 32,
         .stride = 2},
        {.name = "fc_4096to512",
         .conv = false,
         .in_feat_h = 64,
         .in_feat_w = 64,
         .out_features = 512},
    };
    // 0.75 and 1.0 are recorded, not gated: they chart where the gather
    // oracle overtakes the scatter kernel, a density no served workload
    // reaches.
    std::vector<double> densities = {0.01, 0.05, 0.10, 0.15, 0.25, 0.50, 0.75, 1.0};
    if (quick) {
        shapes = {shapes[0], shapes[4]};  // headline VGG conv block + the FC
        densities = {0.05, 0.25};
    }

    std::cout << "==============================================================\n"
              << "Engine hot path: engine step vs scatter and gather psum\n"
              << "kernels, fused fire kernel vs per-neuron fire oracle\n"
              << "(median steps/s of " << kRepeats << " repeats, T=16 inputs per pass)\n"
              << "==============================================================\n";

    std::vector<ResultRow> rows;
    util::Table table("engine_hotpath" + std::string(quick ? " (quick)" : ""));
    table.header({"shape", "density", "engine st/s", "scatter psum/s", "gather psum/s",
                  "scatter/gather"});
    util::Table fire_table("fire stage: per-neuron oracle vs fused vector kernel");
    fire_table.header({"shape", "density", "oracle st/s", "fused st/s", "speedup"});

    bool check_failed = false;
    for (const BenchShape& shape : shapes) {
        util::Rng rng(0xE7E47ULL);
        const snn::SnnModel model = make_model(shape, rng);
        for (const double density : densities) {
            const auto inputs = make_inputs(model, density, 16, rng);
            std::int64_t spikes = 0;
            std::int64_t sites = 0;
            for (const auto& in : inputs) {
                spikes += in.count();
                sites += in.size();
            }
            ResultRow row;
            row.shape = shape.name;
            row.conv = shape.conv;
            row.density = density;
            row.measured_density =
                sites > 0 ? static_cast<double>(spikes) / static_cast<double>(sites) : 0.0;
            row.engine = measure_engine(model, inputs, min_ms);
            row.scatter_psum = measure_kernel(model, false, inputs, min_ms);
            row.gather_psum = measure_kernel(model, true, inputs, min_ms);
            row.fire = measure_fire(model, inputs, min_ms);
            rows.push_back(row);

            table.row({shape.name, util::cell(density, 2), util::cell(row.engine.median, 0),
                       util::cell(row.scatter_psum.median, 0),
                       util::cell(row.gather_psum.median, 0),
                       util::cell(ratio(row.scatter_psum.median, row.gather_psum.median),
                                  2) +
                           "x"});
            fire_table.row(
                {shape.name, util::cell(density, 2),
                 util::cell(row.fire.reference.median, 0),
                 util::cell(row.fire.fused.median, 0),
                 util::cell(ratio(row.fire.fused.median, row.fire.reference.median), 2) +
                     "x"});

            if (check && shape.conv && density <= 0.05 + 1e-9) {
                if (row.engine.median < row.gather_psum.median) {
                    check_failed = true;
                    std::cerr << "CHECK FAILED: engine step (median " << row.engine.median
                              << " steps/s) slower than the gather psum kernel alone ("
                              << row.gather_psum.median << " steps/s) on " << shape.name
                              << " at density " << density << "\n";
                }
                if (row.fire.fused.median < row.fire.reference.median) {
                    check_failed = true;
                    std::cerr << "CHECK FAILED: fused fire kernel (median "
                              << row.fire.fused.median
                              << " steps/s) slower than the fire oracle ("
                              << row.fire.reference.median << " steps/s) on " << shape.name
                              << " at density " << density << "\n";
                }
            }
        }
        table.separator();
        fire_table.separator();
    }
    table.print(std::cout);
    fire_table.print(std::cout);

    write_json(out_path, rows, quick);
    std::cout << "wrote " << out_path << "\n";

    if (check_failed) {
        std::cerr << "FATAL: a hot-path optimization lost to its baseline at <=5% "
                     "density (see CHECK FAILED lines)\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}
