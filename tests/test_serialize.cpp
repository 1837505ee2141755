// SnnModel serialization round-trip and corruption-handling tests, plus
// the deployment property: a loaded model is bit-identical in execution
// to the original (functional engine outputs match exactly).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/convert.hpp"
#include "nn/vgg.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "snn/serialize.hpp"

namespace sia::snn {
namespace {

SnnModel make_model() {
    util::Rng rng(77);
    nn::VggConfig cfg;
    cfg.width = 4;
    cfg.input_size = 16;
    nn::Vgg11 ann(cfg, rng);
    tensor::Tensor x(tensor::Shape{2, 3, 16, 16});
    for (std::int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(0.0F, 1.0F);
    (void)ann.forward(x, true);
    ann.begin_activation_calibration();
    (void)ann.forward(x, false);
    ann.end_activation_calibration();
    ann.enable_quantized_activations(2);
    return core::AnnToSnnConverter().convert(ann.ir());
}

TEST(Serialize, RoundTripPreservesEveryField) {
    const SnnModel model = make_model();
    std::stringstream buf;
    save_model(model, buf);
    const SnnModel back = load_model(buf);

    EXPECT_EQ(back.name, model.name);
    EXPECT_EQ(back.input_channels, model.input_channels);
    EXPECT_EQ(back.classes, model.classes);
    ASSERT_EQ(back.layers.size(), model.layers.size());
    for (std::size_t i = 0; i < model.layers.size(); ++i) {
        const auto& a = model.layers[i];
        const auto& b = back.layers[i];
        EXPECT_EQ(b.label, a.label);
        EXPECT_EQ(b.input, a.input);
        EXPECT_EQ(b.main.weights, a.main.weights);
        EXPECT_EQ(b.main.gain, a.main.gain);
        EXPECT_EQ(b.main.bias, a.main.bias);
        EXPECT_EQ(b.main.gain_shift, a.main.gain_shift);
        EXPECT_FLOAT_EQ(b.main.weight_scale, a.main.weight_scale);
        EXPECT_EQ(b.main.stream_weight_bytes, a.main.stream_weight_bytes);
        EXPECT_EQ(b.threshold, a.threshold);
        EXPECT_EQ(b.initial_potential, a.initial_potential);
        EXPECT_EQ(b.spiking, a.spiking);
        EXPECT_EQ(static_cast<int>(b.neuron), static_cast<int>(a.neuron));
        EXPECT_EQ(static_cast<int>(b.reset), static_cast<int>(a.reset));
        EXPECT_FLOAT_EQ(b.step_size, a.step_size);
        EXPECT_EQ(b.out_channels, a.out_channels);
    }
}

TEST(Serialize, LoadedModelExecutesBitIdentically) {
    const SnnModel model = make_model();
    std::stringstream buf;
    save_model(model, buf);
    const SnnModel back = load_model(buf);

    util::Rng rng(78);
    tensor::Tensor img(tensor::Shape{1, 3, 16, 16});
    for (std::int64_t i = 0; i < img.numel(); ++i) img.flat(i) = rng.uniform(0.0F, 1.0F);
    const auto train = encode_thermometer(img, 6);

    const RunResult a = run_snn(model, train);
    const RunResult b = run_snn(back, train);
    EXPECT_EQ(a.logits_per_step, b.logits_per_step);
    EXPECT_EQ(a.spike_counts, b.spike_counts);
}

TEST(Serialize, FileRoundTrip) {
    const SnnModel model = make_model();
    const std::string path = "/tmp/sia_test_model.snn";
    save_model_file(model, path);
    const SnnModel back = load_model_file(path);
    EXPECT_EQ(back.layers.size(), model.layers.size());
    std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic) {
    std::stringstream buf;
    buf << "NOTASNNFILE-------------------------";
    EXPECT_THROW(load_model(buf), std::runtime_error);
}

TEST(Serialize, RejectsNewerVersion) {
    const SnnModel model = make_model();
    std::stringstream buf;
    save_model(model, buf);
    std::string bytes = buf.str();
    bytes[8] = char(99);  // bump the version field (first byte after magic)
    std::stringstream tampered(bytes);
    EXPECT_THROW(load_model(tampered), std::runtime_error);
}

TEST(Serialize, RejectsTruncation) {
    const SnnModel model = make_model();
    std::stringstream buf;
    save_model(model, buf);
    const std::string bytes = buf.str();
    for (const std::size_t cut : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 3}) {
        std::stringstream truncated(bytes.substr(0, cut));
        EXPECT_THROW(load_model(truncated), std::runtime_error) << "cut=" << cut;
    }
}

/// A few-hundred-byte model covering every serialized field kind: conv
/// stem, conv layer with a downsample (conv) skip branch, linear readout.
SnnModel small_model() {
    const auto conv = [](std::int64_t ic, std::int64_t oc, std::int64_t k) {
        Branch b;
        b.in_channels = ic;
        b.out_channels = oc;
        b.kernel = k;
        b.padding = k / 2;
        b.weights.assign(static_cast<std::size_t>(oc * ic * k * k), 3);
        b.gain.assign(static_cast<std::size_t>(oc), 256);
        b.bias.assign(static_cast<std::size_t>(oc), -1);
        return b;
    };
    SnnModel model;
    model.name = "small";
    model.input_channels = 2;
    model.input_h = model.input_w = 4;
    model.classes = 2;
    SnnLayer stem;
    stem.label = "stem";
    stem.main = conv(2, 3, 3);
    stem.out_channels = 3;
    stem.out_h = stem.out_w = stem.in_h = stem.in_w = 4;
    model.layers.push_back(stem);
    SnnLayer down = stem;
    down.label = "down";
    down.input = 0;
    down.main = conv(3, 3, 3);
    down.skip_src = 0;
    down.skip = conv(3, 3, 1);
    model.layers.push_back(down);
    SnnLayer readout;
    readout.op = LayerOp::kLinear;
    readout.label = "readout";
    readout.input = 1;
    readout.spiking = false;
    readout.main.in_features = 3 * 4 * 4;
    readout.main.out_features = 2;
    readout.main.weights.assign(96, -2);
    readout.main.gain.assign(2, 256);
    readout.main.bias.assign(2, 0);
    readout.out_channels = 2;
    model.layers.push_back(readout);
    model.validate();
    return model;
}

/// Overwrite the 8-byte little-endian field at `offset`.
void patch_u64(std::string& bytes, std::size_t offset, std::uint64_t value) {
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFFU);
    }
}

/// Runs `load` on `bytes`, expecting std::runtime_error; returns its message.
template <typename Load>
std::string load_error(const std::string& bytes, Load&& load) {
    std::stringstream in(bytes);
    try {
        (void)load(in);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    ADD_FAILURE() << "no std::runtime_error";
    return {};
}

TEST(Serialize, EveryTruncatedPrefixThrows) {
    std::stringstream buf;
    save_model(small_model(), buf);
    const std::string bytes = buf.str();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::stringstream truncated(bytes.substr(0, cut));
        EXPECT_THROW((void)load_model(truncated), std::runtime_error) << "cut=" << cut;
    }
}

TEST(Serialize, OversizedVectorHeaderRejectedBeforeAllocation) {
    const SnnModel model = small_model();
    std::stringstream buf;
    save_model(model, buf);
    std::string bytes = buf.str();
    // magic, version, name, 4 x int64 geometry, layer count, then layer
    // 0's op, label and input index precede its main weight-vector length.
    const std::size_t offset = 8 + 4 + (4 + model.name.size()) + 32 + 4 + 1 +
                               (4 + model.layers[0].label.size()) + 4;
    std::uint64_t len = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        len |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[offset + i]))
               << (8 * i);
    }
    ASSERT_EQ(len, model.layers[0].main.weights.size());
    patch_u64(bytes, offset, 48ULL << 20);  // 48 Mi int8 weights in a ~1 kB stream
    const std::string what =
        load_error(bytes, [](std::istream& in) { return load_model(in); });
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("stream holds"), std::string::npos) << what;
}

TEST(Serialize, MissingFileThrows) {
    EXPECT_THROW(load_model_file("/nonexistent/model.snn"), std::runtime_error);
}

// ---- Spike-train container (packed-word raw round-trip) ----

TEST(SerializeTrain, PackedWordsRoundTripBitExactly) {
    util::Rng rng(55);
    SpikeTrain train(7, SpikeMap(3, 5, 9));  // 135 sites: word-boundary tail
    for (auto& m : train) {
        for (std::int64_t i = 0; i < m.size(); ++i) m.set_flat(i, rng.bernoulli(0.2));
    }
    std::stringstream buf;
    save_train(train, buf);
    const SpikeTrain back = load_train(buf);
    ASSERT_EQ(back.size(), train.size());
    for (std::size_t t = 0; t < train.size(); ++t) {
        EXPECT_TRUE(back[t] == train[t]) << "t=" << t;
        EXPECT_EQ(back[t].raw(), train[t].raw()) << "t=" << t;
        EXPECT_EQ(back[t].count(), train[t].count()) << "t=" << t;
    }
}

TEST(SerializeTrain, EmptyTrainRoundTrips) {
    std::stringstream buf;
    save_train(SpikeTrain{}, buf);
    EXPECT_TRUE(load_train(buf).empty());
}

TEST(SerializeTrain, RejectsBadMagicAndTruncation) {
    std::stringstream bad("not a spike train at all");
    EXPECT_THROW(load_train(bad), std::runtime_error);

    SpikeTrain train(3, SpikeMap(1, 4, 4));
    train[1].set_flat(5, true);
    std::stringstream buf;
    save_train(train, buf);
    const std::string bytes = buf.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() - 4));
    EXPECT_THROW(load_train(truncated), std::runtime_error);
}

TEST(SerializeTrain, EveryTruncatedPrefixThrows) {
    util::Rng rng(56);
    SpikeTrain train(4, SpikeMap(3, 5, 9));  // two words per step
    for (auto& m : train) {
        for (std::int64_t i = 0; i < m.size(); ++i) m.set_flat(i, rng.bernoulli(0.3));
    }
    std::stringstream buf;
    save_train(train, buf);
    const std::string bytes = buf.str();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::stringstream truncated(bytes.substr(0, cut));
        EXPECT_THROW((void)load_train(truncated), std::runtime_error) << "cut=" << cut;
    }
}

TEST(SerializeTrain, OversizedHeadersRejectedBeforeAllocation) {
    SpikeTrain train(3, SpikeMap(1, 4, 4));
    train[2].set_flat(7, true);
    std::stringstream buf;
    save_train(train, buf);
    const auto load = [](std::istream& in) { return load_train(in); };
    // Timestep count (after magic and version): 100k maps claimed.
    std::string steps = buf.str();
    patch_u64(steps, 12, 100000);
    std::string what = load_error(steps, load);
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("stream holds"), std::string::npos) << what;
    // First step's word count (after the three int64 dimensions): 4 Mi
    // words claimed.
    std::string words = buf.str();
    patch_u64(words, 12 + 8 + 24, 4ULL << 20);
    what = load_error(words, load);
    EXPECT_EQ(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("stream holds"), std::string::npos) << what;
}

TEST(SerializeTrain, RejectsMixedGeometry) {
    SpikeTrain train;
    train.emplace_back(1, 2, 2);
    train.emplace_back(1, 2, 3);
    std::stringstream buf;
    EXPECT_THROW(save_train(train, buf), std::runtime_error);
}

}  // namespace
}  // namespace sia::snn
