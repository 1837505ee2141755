// perfbench driver: runs one workload of the repository benchmark through
// core::Server and writes the raw measurements as one JSON file — set-up
// phase times, every client-side latency sample, request ledgers,
// modelled cycles and, in a traced run, every span. perfbench/run.py
// builds this binary, runs it and derives the metrics from that file;
// perfbench/README.md says why each workload exists.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out <path>
//
// Exit code 0 only when every response matched its reference.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/backend.hpp"
#include "core/compiler.hpp"
#include "core/convert.hpp"
#include "core/server.hpp"
#include "data/events.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "perfbench/trace.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "snn/exit.hpp"
#include "snn/session.hpp"
#include "util/rng.hpp"

namespace {

using namespace sia;
using perfbench::Clock;
using perfbench::Span;
using perfbench::SpanSink;

// Thread budget: one generator thread (main) + each lane's dispatcher +
// kWorkers runner threads = 4 threads, the host's core count.
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 16;
// Set-up is repeated until its phases add up to kSetupBudgetS (at least
// kSetupMinRepeats times), and setup_s is the median: one set-up lasts
// 3 ms on stream_dvs and 0.3 s on sim_resnet.
constexpr int kSetupMinRepeats = 7;
constexpr int kSetupMaxRepeats = 400;
constexpr double kSetupBudgetS = 2.0;
// Timed sections are cut into blocks of about kBlockS. A block in which
// the hypervisor stole more than kMaxStealFrac of the host's busy CPU
// time (/proc/stat) is left out, and the section runs on until its kept
// blocks add up to --seconds or it has run kMaxStretch times --seconds.
constexpr double kBlockS = 1.0;
constexpr double kMaxStealFrac = 0.10;
constexpr double kMaxStretch = 1.5;
// Pool inputs held in memory (and used for the direct encode calls);
// larger pools rebuild each input from its seed when it is served.
constexpr std::size_t kImages = 32;
constexpr std::int64_t kImageSize = 16;
constexpr std::int64_t kSensorSize = 24;
constexpr std::int64_t kWindowSteps = 8;
constexpr std::size_t kSessions = 8;
constexpr std::size_t kSceneWindows = 16;
// Event counts differ by about ±25% between scenes (object size and
// path), so each session slot plays many scenes in turn to make the work
// per window the same across seeds.
constexpr std::size_t kScenes = 64;
constexpr std::uint64_t kModelSeed = 97;  // the program's weights; inputs use --seed
// Warm-up inputs are the same for every --seed, so set-up does the same
// work in every run.
constexpr std::uint64_t kWarmSeed = 0x3A3A;

enum class Kind { kServeVgg, kStreamDvs, kSimResnet, kSimResnetExit };

struct Spec {
    Kind kind;
    std::int64_t timesteps;
    std::size_t outstanding;  ///< closed loop: requests in flight at all times
    std::size_t pool;         ///< distinct inputs (pool workloads)
};

Spec spec_for(const std::string& name) {
    if (name == "serve_vgg") return {Kind::kServeVgg, 6, 1, kImages};
    if (name == "stream_dvs") return {Kind::kStreamDvs, kWindowSteps, kSessions, 0};
    if (name == "sim_resnet") return {Kind::kSimResnet, 8, 32, kImages};
    // Exit steps vary widely between random inputs (2 to 8 of 8), so the
    // pool must be large for its mean work to be the same across seeds;
    // inputs past kImages are rebuilt when served, not held.
    if (name == "sim_resnet_exit") return {Kind::kSimResnetExit, 8, 32, 4096};
    throw std::invalid_argument("unknown workload '" + name + "'");
}

bool is_sim(Kind k) { return k == Kind::kSimResnet || k == Kind::kSimResnetExit; }

constexpr snn::ExitCriterion kExit{.margin = 200, .min_steps = 2};

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

snn::EngineConfig lean_config() {
    snn::EngineConfig config;
    config.record_readout_history = false;  // serving reads only the final readout
    return config;
}

// ---- the programs -------------------------------------------------------

/// The 2-channel DVS model of bench/stream_latency: conv 2->8, conv 8->16
/// stride 2, linear readout, over 24x24 polarity frames.
snn::SnnModel stream_model() {
    util::Rng rng(kModelSeed);
    snn::SnnModel model;
    model.name = "dvs-stream";
    model.input_channels = 2;
    model.input_h = kSensorSize;
    model.input_w = kSensorSize;
    const auto fill = [&rng](std::vector<std::int8_t>& w, int lo, int hi) {
        for (auto& v : w) v = static_cast<std::int8_t>(rng.integer(lo, hi));
    };
    const auto conv = [&](int input, std::int64_t in_c, std::int64_t out_c,
                          std::int64_t stride, const char* label) {
        snn::SnnLayer l;
        l.op = snn::LayerOp::kConv;
        l.label = label;
        l.input = input;
        l.main.in_channels = in_c;
        l.main.out_channels = out_c;
        l.main.kernel = 3;
        l.main.stride = stride;
        l.main.padding = 1;
        l.main.weights.resize(static_cast<std::size_t>(in_c * out_c * 9));
        fill(l.main.weights, -127, 127);
        l.main.gain.resize(static_cast<std::size_t>(out_c));
        l.main.bias.resize(static_cast<std::size_t>(out_c));
        for (auto& g : l.main.gain) g = static_cast<std::int16_t>(rng.integer(50, 2000));
        for (auto& h : l.main.bias) h = static_cast<std::int16_t>(rng.integer(-100, 100));
        l.in_h = kSensorSize;
        l.in_w = kSensorSize;
        l.out_channels = out_c;
        l.out_h = kSensorSize / stride;
        l.out_w = kSensorSize / stride;
        model.layers.push_back(std::move(l));
    };
    conv(-1, 2, 8, 1, "conv0");
    conv(0, 8, 16, 2, "conv1");
    snn::SnnLayer fc;
    fc.op = snn::LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 1;
    fc.spiking = false;
    fc.main.in_features = 16 * (kSensorSize / 2) * (kSensorSize / 2);
    fc.main.out_features = 10;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 10));
    fill(fc.main.weights, -64, 64);
    fc.main.gain.assign(10, 256);
    fc.main.bias.assign(10, 0);
    fc.out_channels = 10;
    model.layers.push_back(std::move(fc));
    model.classes = 10;
    model.validate();
    return model;
}

// ---- inputs (generated from --seed before set-up; never timed) ---------

/// Pool input i of `seed` has a random stream of its own, so any input
/// can be rebuilt without holding the pool.
tensor::Tensor pool_image(std::uint64_t seed, std::size_t i) {
    util::Rng rng(util::mix_seed(seed, i));
    tensor::Tensor img(tensor::Shape{1, 3, kImageSize, kImageSize});
    for (std::int64_t j = 0; j < img.numel(); ++j) img.flat(j) = rng.uniform();
    return img;
}

struct Inputs {
    std::uint64_t seed = 0;
    std::int64_t timesteps = 0;
    std::size_t pool = 0;                 ///< distinct pool inputs
    std::vector<tensor::Tensor> images;   ///< the first kImages pool images
    std::vector<snn::SpikeTrain> trains;  ///< their thermometer trains
    /// stream_dvs: [scene][window] -> events with window-local timestamps.
    std::vector<std::vector<std::vector<data::Event>>> scenes;
    std::size_t events = 0;

    /// Thermometer train of pool input i, rebuilt when it is not held.
    [[nodiscard]] snn::SpikeTrain train(std::size_t i) const {
        return i < trains.size() ? trains[i]
                                 : snn::encode_thermometer(pool_image(seed, i), timesteps);
    }
};

/// `count` pool inputs, or `count` scenes on stream_dvs.
Inputs make_inputs(const Spec& spec, std::uint64_t seed, std::size_t count) {
    Inputs in;
    in.seed = seed;
    in.timesteps = spec.timesteps;
    if (spec.kind == Kind::kStreamDvs) {
        const std::int64_t steps = static_cast<std::int64_t>(kSceneWindows) * kWindowSteps;
        for (std::size_t s = 0; s < count; ++s) {
            // The "typical" scene of bench/stream_latency: ~1% of pixel-steps.
            data::EventSceneConfig cfg;
            cfg.size = kSensorSize;
            cfg.timesteps = steps;
            cfg.objects = 1;
            cfg.event_rate = 0.5F;
            cfg.noise_rate = 0.001F;
            cfg.seed = util::mix_seed(seed, s);
            std::vector<std::vector<data::Event>> windows(kSceneWindows);
            for (data::Event e : data::make_event_scene(cfg)) {
                const auto w = static_cast<std::size_t>(e.t / kWindowSteps);
                e.t %= static_cast<std::int32_t>(kWindowSteps);
                windows.at(w).push_back(e);
                ++in.events;
            }
            in.scenes.push_back(std::move(windows));
        }
        return in;
    }
    in.pool = count;
    for (std::size_t i = 0; i < std::min(count, kImages); ++i) {
        in.images.push_back(pool_image(seed, i));
        in.trains.push_back(snn::encode_thermometer(in.images.back(), spec.timesteps));
    }
    return in;
}

snn::SpikeTrain window_train(const std::vector<data::Event>& events) {
    std::int64_t dropped = 0;
    auto train = snn::frames_to_train(
        data::events_to_frames(events, kSensorSize, kWindowSteps, &dropped));
    if (dropped != 0) throw std::runtime_error("event outside its window");
    return train;
}

// ---- set-up (what the program pays before the first timed request) -----

struct Phases {
    double calibrate_ms = 0, convert_ms = 0, start_ms = 0, warmup_ms = 0;
    [[nodiscard]] double total_s() const {
        return (calibrate_ms + convert_ms + start_ms + warmup_ms) / 1e3;
    }
};

struct Setup {
    std::unique_ptr<snn::SnnModel> model;  // backends keep a reference: never moves
    std::shared_ptr<core::Backend> backend;
    std::unique_ptr<core::Server> server;
    Phases phases;
};

core::ServerOptions server_options() {
    return {.threads = kWorkers, .max_queue = 256, .max_batch = kMaxBatch};
}

std::shared_ptr<core::Backend> make_backend(const Spec& spec, const snn::SnnModel& model) {
    if (is_sim(spec.kind)) {
        return std::make_shared<core::SiaBackend>(model, sim::SiaConfig{},
                                                  core::SimSchedule::kResident);
    }
    return std::make_shared<core::FunctionalBackend>(model, lean_config());
}

// ---- requests, references and the correctness gate ---------------------

struct Ticket {
    std::size_t item = 0;    ///< pool index, or scene index on stream_dvs
    std::size_t window = 0;  ///< window index within the scene (stream_dvs)
};

struct Reference {
    std::vector<std::int64_t> logits;
    std::int64_t steps = 0;
    std::int64_t predicted = 0;
};

/// Per-item references from direct FunctionalEngine calls, plus the
/// modelled cycles each pool item must report on every Sia response.
struct References {
    std::vector<std::vector<Reference>> items;  ///< [item][window]
    std::vector<std::optional<std::int64_t>> cycles;  ///< sim_*: per pool item
    std::size_t cycles_known = 0;
    snn::LayerDispatchStats dispatch_all;  ///< summed over layers
    snn::LayerDispatchStats dispatch_layer0;
};

References make_references(const Spec& spec, const snn::SnnModel& model,
                           const Inputs& in) {
    References refs;
    snn::FunctionalEngine engine(model, lean_config());
    const auto keep = [&](const snn::RunResult& r) {
        for (std::size_t l = 0; l < r.layer_dispatch.size(); ++l) {
            const auto& d = r.layer_dispatch[l];
            for (auto* acc : {&refs.dispatch_all, l == 0 ? &refs.dispatch_layer0 : nullptr}) {
                if (acc == nullptr) continue;
                acc->dense_steps += d.dense_steps;
                acc->scatter_steps += d.scatter_steps;
                acc->input_spikes += d.input_spikes;
                acc->input_sites += d.input_sites;
            }
        }
        return Reference{r.readout, r.timesteps, r.predicted()};
    };
    if (spec.kind == Kind::kStreamDvs) {
        for (const auto& scene : in.scenes) {
            snn::SessionState state;
            std::vector<Reference> windows;
            for (const auto& events : scene) {
                windows.push_back(keep(engine.run_window(window_train(events), state)));
            }
            refs.items.push_back(std::move(windows));
        }
        return refs;
    }
    for (std::size_t i = 0; i < in.pool; ++i) {
        const snn::SpikeTrain train = in.train(i);
        refs.items.push_back({keep(spec.kind == Kind::kSimResnetExit
                                       ? engine.run(train, kExit)
                                       : engine.run(train))});
    }
    if (is_sim(spec.kind)) refs.cycles.resize(in.pool);
    return refs;
}

/// Builds the closed loop's requests. Pool workloads cycle the pool;
/// stream_dvs session slot s plays scenes s, s + kSessions, ... in turn,
/// window by window, each under a fresh session id. `t0` is set when the
/// request's input exists: before conversion on stream_dvs, after a pool
/// input that is not held has been rebuilt.
class Source {
public:
    Source(const Spec& spec, const Inputs& in, std::string prefix)
        : spec_(spec), in_(in), prefix_(std::move(prefix)),
          window_(kSessions, 0), pass_(kSessions, 0) {}

    core::Request make(std::size_t slot, Ticket& ticket, Clock::time_point& t0) {
        if (spec_.kind == Kind::kStreamDvs) {
            const std::size_t w = window_[slot];
            ticket = {(slot + kSessions * pass_[slot]) % in_.scenes.size(), w};
            t0 = Clock::now();
            const bool last = w + 1 == kSceneWindows;
            auto request =
                core::Request::from_train(window_train(in_.scenes[ticket.item][w]))
                    .with_session(session_id(slot), last);
            if (last) ++pass_[slot];
            window_[slot] = last ? 0 : w + 1;
            return request;
        }
        ticket = {next_item_++ % in_.pool, 0};
        if (spec_.kind == Kind::kServeVgg) {
            t0 = Clock::now();
            return core::Request::view_thermometer(in_.images.at(ticket.item),
                                                   spec_.timesteps);
        }
        core::Request request;
        if (ticket.item < in_.trains.size()) {
            t0 = Clock::now();
            request = core::Request::view_train(in_.trains[ticket.item]);
        } else {
            snn::SpikeTrain train = in_.train(ticket.item);
            t0 = Clock::now();
            request = core::Request::from_train(std::move(train));
        }
        if (spec_.kind == Kind::kSimResnetExit) request = std::move(request).with_early_exit(kExit);
        return request;
    }

    [[nodiscard]] std::string session_id(std::size_t slot) const {
        return prefix_ + std::to_string(slot) + "." + std::to_string(pass_[slot]);
    }

private:
    const Spec& spec_;
    const Inputs& in_;
    std::string prefix_;
    std::vector<std::size_t> window_;
    std::vector<std::size_t> pass_;
    std::size_t next_item_ = 0;
};

/// Totals read from the responses of one or more sections.
struct Ledger {
    std::size_t attempted = 0;
    std::size_t failed = 0;  ///< failed responses and reference mismatches
    std::int64_t steps_used = 0, steps_offered = 0, retired = 0;
    sim::LayerCycleStats cycles;  ///< summed over layers and responses
    std::size_t cycle_items = 0;
};

/// The correctness gate: a response counts only when it succeeded and
/// matches its reference bit for bit; Sia responses must also repeat the
/// pool item's modelled cycles exactly.
void check(const Spec& spec, References& refs, const Ticket& t, const core::Response& r,
           Ledger& ledger) {
    const Reference& ref = refs.items.at(t.item).at(t.window);
    std::string why;
    if (!r.ok()) {
        why = std::string("response failed: ") + core::to_string(r.error_code) + " " + r.error;
    } else if (r.logits != ref.logits) {
        why = "logits differ from the FunctionalEngine reference";
    } else if (spec.kind == Kind::kSimResnetExit &&
               (r.steps_used != ref.steps || r.predicted() != ref.predicted)) {
        why = "early-exit steps or prediction differ from the reference";
    } else if (is_sim(spec.kind)) {
        auto& cycles = refs.cycles.at(t.item);
        if (!cycles) {
            cycles = r.total_cycles();
            ++refs.cycles_known;
        }
        if (*cycles != r.total_cycles()) why = "modelled cycles differ between responses";
    }
    ledger.steps_used += r.steps_used;
    ledger.steps_offered += r.steps_offered;
    if (r.exit_reason != snn::ExitReason::kNone) ++ledger.retired;
    for (const auto& l : r.layer_stats) ledger.cycles += l;
    if (!r.layer_stats.empty()) ++ledger.cycle_items;
    if (why.empty()) return;
    if (ledger.failed == 0) {
        std::cerr << "perfbench: MISMATCH item " << t.item << " window " << t.window
                  << ": " << why << "\n";
    }
    ++ledger.failed;
}

// ---- the closed loop ----------------------------------------------------

/// Aggregate CPU time of the host from the first line of /proc/stat, in
/// clock ticks: busy (everything but idle and iowait, steal included)
/// and steal (time a vCPU was ready to run but the hypervisor ran
/// something else).
struct CpuTicks {
    std::uint64_t busy = 0, steal = 0;
};

CpuTicks cpu_ticks() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    // user nice system idle iowait irq softirq steal
    std::uint64_t v[8] = {};
    stat >> cpu;
    for (auto& x : v) stat >> x;
    if (!stat || cpu != "cpu") throw std::runtime_error("cannot read /proc/stat");
    return {v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]};
}

/// Samples complete in order, so a block is a run of them.
struct Block {
    double t0_s = 0, t1_s = 0;  ///< from section start
    double steal_frac = 0;      ///< stolen share of the host's busy CPU time
    std::size_t first = 0, count = 0;  ///< its samples
    [[nodiscard]] bool kept() const { return steal_frac <= kMaxStealFrac; }
};

struct Section {
    bool traced = false;
    double wall_s = 0;
    /// Every sample, the drain's after the last block's. float: 4 bytes
    /// a sample keeps the benchmark's share of peak RSS small.
    std::vector<float> latency_us;
    std::vector<Block> blocks;
    std::size_t waves = 0, wave_items = 0;
};

/// Keeps `spec.outstanding` requests in flight (one per session slot on
/// stream_dvs) in blocks of about kBlockS, until the kept blocks add up
/// to `seconds` or the section has lasted kMaxStretch x `seconds`, and
/// with `cover_pool` until the modelled cycles of every pool input are
/// known (sim_*); then it stops submitting and drains. Samples of the
/// drain belong to no block. Latency runs from when the request's input
/// exists (on stream_dvs: the window's events, before conversion) until
/// the generator sees the future ready. Requests complete in admission
/// order (FIFO lane, one wave at a time), so waiting on the oldest loses
/// no completion.
Section closed_loop(const Spec& spec, core::Server& server, Source& source,
                    References& refs, double seconds, bool cover_pool,
                    std::uint64_t& admitted, Ledger& ledger, SpanSink* sink) {
    struct Pending {
        Clock::time_point t0;
        std::int64_t submitted_ns = 0;
        std::uint64_t seq = 0;
        std::size_t slot = 0;
        Ticket ticket;
        std::future<core::Response> future;
    };
    Section section;
    section.traced = sink != nullptr;
    // Reserved, not touched: pages count toward peak RSS only as samples
    // arrive, so RSS grows linearly instead of in reallocation steps.
    const auto capacity = static_cast<std::size_t>(seconds * kMaxStretch * 20000) + 4096;
    section.latency_us.reserve(capacity);
    const auto before = server.stats();
    std::deque<Pending> pending;
    const auto submit = [&](std::size_t slot) {
        Pending p;
        p.slot = slot;
        auto request = source.make(slot, p.ticket, p.t0);
        p.future = server.submit(std::move(request));
        if (sink != nullptr) p.submitted_ns = sink->now_ns();
        p.seq = admitted++;
        pending.push_back(std::move(p));
    };
    const auto seconds_since = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    const auto start = Clock::now();
    auto block_start = start;
    CpuTicks block_ticks = cpu_ticks();
    double kept_s = 0;
    bool submitting = true;
    for (std::size_t slot = 0; slot < spec.outstanding; ++slot) submit(slot);
    while (!pending.empty()) {
        Pending p = std::move(pending.front());
        pending.pop_front();
        const core::Response response = p.future.get();
        const auto done = Clock::now();
        section.latency_us.push_back(
            std::chrono::duration<float, std::micro>(done - p.t0).count());
        ++ledger.attempted;
        check(spec, refs, p.ticket, response, ledger);
        if (sink != nullptr) {
            const auto id = sink->add({.name = "request", .t0_ns = sink->ns(p.t0),
                                       .t1_ns = sink->ns(done), .seqs = {p.seq}});
            sink->add({.name = "submit", .parent = id, .t0_ns = sink->ns(p.t0),
                       .t1_ns = p.submitted_ns, .seqs = {p.seq}});
        }
        if (submitting && seconds_since(block_start, done) >= kBlockS) {
            const CpuTicks ticks = cpu_ticks();
            const auto busy = static_cast<double>(ticks.busy - block_ticks.busy);
            const auto stolen = static_cast<double>(ticks.steal - block_ticks.steal);
            const std::size_t first =
                section.blocks.empty() ? 0 : section.blocks.back().first + section.blocks.back().count;
            const Block block{seconds_since(start, block_start), seconds_since(start, done),
                              busy > 0 ? stolen / busy : 0.0, first,
                              section.latency_us.size() - first};
            section.blocks.push_back(block);
            if (block.kept()) kept_s += block.t1_s - block.t0_s;
            block_start = done;
            block_ticks = ticks;
            submitting = (kept_s < seconds && block.t1_s < seconds * kMaxStretch) ||
                         (cover_pool && refs.cycles_known < refs.cycles.size());
        }
        if (submitting) submit(p.slot);
    }
    section.wall_s = seconds_since(start, Clock::now());
    const auto after = server.stats();
    section.waves = after.batches - before.batches;
    section.wave_items =
        (after.completed + after.failed) - (before.completed + before.failed);
    return section;
}

/// Requests in the warm-up wave: `outstanding`, at least two per worker.
std::size_t warm_requests(const Spec& spec) {
    return std::max<std::size_t>(spec.outstanding, 2 * kWorkers);
}

/// Fill every worker once with the warm-up inputs, all submitted at
/// once, each response checked like any other.
void warm_up(const Spec& spec, core::Server& server, Source& source, References& refs,
             std::uint64_t& admitted) {
    Ledger ledger;
    std::vector<std::pair<Ticket, std::future<core::Response>>> futures;
    for (std::size_t i = 0; i < warm_requests(spec); ++i) {
        Ticket t;
        Clock::time_point t0;
        auto request = source.make(i % spec.outstanding, t, t0);
        futures.emplace_back(t, server.submit(std::move(request)));
        ++admitted;
    }
    for (auto& [t, f] : futures) check(spec, refs, t, f.get(), ledger);
    if (spec.kind == Kind::kStreamDvs) {
        for (std::size_t s = 0; s < kSessions; ++s) server.close_session(source.session_id(s));
    }
    if (ledger.failed != 0) throw std::runtime_error("warm-up responses failed the gate");
}

/// One complete set-up, timed phase by phase, warmed up with `warm_in`.
/// `untimed` runs on the fresh model before the server starts and is
/// left out of the phases: the first set-up builds the references there
/// (input generation and reference runs are the benchmark's own cost,
/// not the program's).
Setup set_up(const Spec& spec, const Inputs& warm_in, References& warm_refs,
             const std::function<void(const snn::SnnModel&)>& untimed,
             std::uint64_t& admitted) {
    Setup s;
    auto t = Clock::now();
    const auto lap = [&t] {
        const auto now = Clock::now();
        const double ms = ms_between(t, now);
        t = now;
        return ms;
    };
    if (spec.kind == Kind::kStreamDvs) {
        s.model = std::make_unique<snn::SnnModel>(stream_model());
        s.phases.calibrate_ms = lap();
    } else {
        std::unique_ptr<nn::Model> ann;
        if (spec.kind == Kind::kServeVgg) {
            ann = bench::calibrated_model<nn::Vgg11>(
                nn::VggConfig{.width = 8, .input_size = kImageSize}, 2, kModelSeed);
        } else {
            ann = bench::calibrated_model<nn::ResNet18>(
                nn::ResNetConfig{.width = 8, .input_size = kImageSize}, 2, kModelSeed);
        }
        s.phases.calibrate_ms = lap();
        s.model = std::make_unique<snn::SnnModel>(
            core::AnnToSnnConverter(core::ConvertOptions{}).convert(ann->ir()));
        s.phases.convert_ms = lap();
    }
    if (untimed) {
        untimed(*s.model);
        (void)lap();
    }
    s.backend = make_backend(spec, *s.model);
    s.server = std::make_unique<core::Server>(s.backend, server_options());
    admitted = 0;
    s.phases.start_ms = lap();
    Source warm(spec, warm_in, "warm");
    warm_up(spec, *s.server, warm, warm_refs, admitted);
    s.phases.warmup_ms = lap();
    return s;
}

// ---- modelled cycles on the functional workloads ------------------------

/// The served path of serve_vgg and stream_dvs runs no Sia code, so
/// their modelled cycles come from one direct sim::Sia pass over the
/// same inputs after set-up (untimed; the first kSessions scenes on
/// stream_dvs, whose cycles are nearly all per-window MMIO), which also
/// checks Sia against the functional references bit for bit.
struct SiaPass {
    double cycles_per_item = 0;
    sim::LayerCycleStats cycles;  ///< summed over layers and items
    std::size_t items = 0;
    double host_ms = 0;
    sim::SiaBatchStats batch;  ///< summed over run_batch calls
    bool identical = true;
};

SiaPass sia_pass(const Spec& spec, const snn::SnnModel& model, const Inputs& in,
                 const References& refs) {
    const sim::SiaConfig config{};
    const auto program = core::SiaCompiler(config).compile(model);
    sim::Sia sia(config, model, program);
    SiaPass pass;
    const auto add = [&](const std::vector<sim::SiaRunResult>& results,
                         const std::vector<const Reference*>& expect) {
        perfbench::add_batch_stats(pass.batch, sia.last_batch_stats());
        for (std::size_t i = 0; i < results.size(); ++i) {
            for (const auto& l : results[i].layer_stats) pass.cycles += l;
            pass.identical = pass.identical && results[i].readout == expect[i]->logits;
            ++pass.items;
        }
    };
    const auto t0 = Clock::now();
    if (spec.kind == Kind::kStreamDvs) {
        // Window w of every scene in one resident wave, as the server
        // batches one window per session.
        std::vector<snn::SessionState> states(kSessions);
        for (std::size_t w = 0; w < kSceneWindows; ++w) {
            std::vector<snn::SpikeTrain> trains;
            std::vector<const snn::SpikeTrain*> ptrs;
            std::vector<snn::SessionState*> sessions;
            std::vector<const Reference*> expect;
            for (std::size_t s = 0; s < kSessions; ++s) {
                trains.push_back(window_train(in.scenes[s][w]));
                sessions.push_back(&states[s]);
                expect.push_back(&refs.items[s][w]);
            }
            for (const auto& t : trains) ptrs.push_back(&t);
            add(sia.run_batch(ptrs, sessions), expect);
        }
    } else {
        std::vector<const Reference*> expect;
        for (const auto& r : refs.items) expect.push_back(&r[0]);
        add(sia.run_batch(in.trains), expect);
    }
    pass.host_ms = ms_between(t0, Clock::now());
    pass.cycles_per_item =
        static_cast<double>(pass.cycles.total()) / static_cast<double>(pass.items);
    return pass;
}

// ---- direct calls into each layer (traced run only) ---------------------

template <typename F>
void timed(SpanSink& sink, const char* name, F&& call) {
    Span span{.name = name, .t0_ns = sink.now_ns()};
    call();
    span.t1_ns = sink.now_ns();
    sink.add(std::move(span));
}

void direct_calls(const Spec& spec, const snn::SnnModel& model, const Inputs& in,
                  SpanSink& sink) {
    snn::FunctionalEngine engine(model, lean_config());
    for (int rep = 0; rep < 3; ++rep) {
        timed(sink, "core.compiler.compile",
              [&] { (void)core::SiaCompiler(sim::SiaConfig{}).compile(model); });
    }
    if (spec.kind == Kind::kStreamDvs) {
        for (const auto& scene : in.scenes) {
            snn::SessionState state;
            for (const auto& events : scene) {
                snn::SpikeTrain train;
                timed(sink, "data.events.window_prep", [&] { train = window_train(events); });
                const auto frames = data::events_to_frames(events, kSensorSize, kWindowSteps);
                timed(sink, "snn.encoding.encode",
                      [&] { (void)snn::frames_to_train(frames); });
                timed(sink, "snn.engine.run", [&] { (void)engine.run(train); });
                timed(sink, "snn.session.window",
                      [&] { (void)engine.run_window(train, state); });
            }
        }
        return;
    }
    for (int rep = 0; rep < 2; ++rep) {
        for (std::size_t i = 0; i < kImages; ++i) {
            timed(sink, "snn.encoding.encode",
                  [&] { (void)snn::encode_thermometer(in.images[i], spec.timesteps); });
            timed(sink, "snn.engine.run", [&] {
                (void)(spec.kind == Kind::kSimResnetExit ? engine.run(in.trains[i], kExit)
                                                         : engine.run(in.trains[i]));
            });
            snn::SessionState state;
            timed(sink, "snn.session.window",
                  [&] { (void)engine.run_window(in.trains[i], state); });
        }
    }
}

std::size_t session_state_bytes(const snn::SnnModel& model, const Inputs& in,
                                const Spec& spec) {
    snn::FunctionalEngine engine(model, lean_config());
    snn::SessionState state;
    (void)engine.run_window(spec.kind == Kind::kStreamDvs ? window_train(in.scenes[0][0])
                                                          : in.trains[0],
                            state);
    std::size_t bytes = state.readout.size() * sizeof(std::int64_t);
    for (const auto& m : state.membranes) bytes += m.size() * sizeof(std::int16_t);
    return bytes;
}

// ---- output -------------------------------------------------------------

/// VmHWM, not getrusage: ru_maxrss survives exec and would report the
/// launching process's peak.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
        }
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

template <typename T>
std::string list(const std::vector<T>& v) {
    std::ostringstream out;
    out.precision(17);
    out << "[";
    for (std::size_t i = 0; i < v.size(); ++i) out << (i ? "," : "") << v[i];
    out << "]";
    return out.str();
}

void write_cycles(std::ostream& out, const sim::LayerCycleStats& c, std::size_t items) {
    const auto per = [items](auto v) {
        return items ? static_cast<double>(v) / static_cast<double>(items) : 0.0;
    };
    out << "{\"items\":" << items << ",\"total\":" << per(c.total())
        << ",\"compute\":" << per(c.compute) << ",\"aggregate\":" << per(c.aggregate)
        << ",\"dma\":" << per(c.dma) << ",\"mmio\":" << per(c.mmio)
        << ",\"overhead\":" << per(c.overhead)
        << ",\"event_additions\":" << per(c.event_additions) << "}";
}

void write_batch(std::ostream& out, const sim::SiaBatchStats& b) {
    out << "{\"items\":" << b.batch << ",\"weight_bytes_streamed\":" << b.weight_bytes_streamed
        << ",\"resident_cycles\":" << b.resident_cycles
        << ",\"sequential_cycles\":" << b.sequential_cycles << "}";
}

struct Options {
    std::string workload, out;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload") o.workload = value;
        else if (key == "--seed") o.seed = std::stoull(value);
        else if (key == "--seconds") o.seconds = std::stod(value);
        else if (key == "--trace") o.trace = value == "1";
        else if (key == "--out") o.out = value;
        else throw std::invalid_argument("unknown flag " + key);
    }
    if (argc % 2 != 1 || o.workload.empty() || o.out.empty() || o.seconds <= 0) {
        throw std::invalid_argument(
            "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> --out <path>");
    }
    return o;
}

int run(const Options& opt) {
    const Spec spec = spec_for(opt.workload);
    const auto epoch = Clock::now();
    const Inputs in = make_inputs(spec, opt.seed, spec.kind == Kind::kStreamDvs ? kScenes
                                                                                : spec.pool);
    const Inputs warm_in = make_inputs(
        spec, kWarmSeed, spec.kind == Kind::kStreamDvs ? kSessions : warm_requests(spec));

    References refs, warm_refs;
    std::optional<SiaPass> pass;
    std::vector<Phases> phases;
    std::uint64_t admitted = 0;
    Setup setup;
    double setup_s = 0;
    for (int rep = 0; rep < kSetupMinRepeats ||
                      (setup_s < kSetupBudgetS && rep < kSetupMaxRepeats);
         ++rep) {
        // Tear the previous set-up down (server, then backend, then the
        // model they reference) before timing the next.
        setup.server.reset();
        setup.backend.reset();
        std::function<void(const snn::SnnModel&)> untimed;
        if (rep == 0) {
            untimed = [&](const snn::SnnModel& model) {
                refs = make_references(spec, model, in);
                warm_refs = make_references(spec, model, warm_in);
                if (!is_sim(spec.kind)) pass = sia_pass(spec, model, in, refs);
            };
        }
        setup = set_up(spec, warm_in, warm_refs, untimed, admitted);
        phases.push_back(setup.phases);
        setup_s += setup.phases.total_s();
    }

    Ledger ledger;
    std::vector<Section> sections;
    std::unique_ptr<SpanSink> sink;
    std::shared_ptr<perfbench::TracingBackend> tracer;
    const double section_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    Source source(spec, in, "s");
    sections.push_back(
        closed_loop(spec, *setup.server, source, refs, section_s, !opt.trace, admitted,
                    ledger, nullptr));
    if (opt.trace) {
        // Same warm backend, now behind the decorator on a fresh server.
        setup.server.reset();
        sink = std::make_unique<SpanSink>(epoch);
        tracer = std::make_shared<perfbench::TracingBackend>(setup.backend, *sink);
        setup.server = std::make_unique<core::Server>(tracer, server_options());
        admitted = 0;
        Source warm(spec, warm_in, "twarm");
        warm_up(spec, *setup.server, warm, warm_refs, admitted);
        Source traced(spec, in, "t");
        sections.push_back(closed_loop(spec, *setup.server, traced, refs, section_s, true,
                                       admitted, ledger, sink.get()));
        direct_calls(spec, *setup.model, in, *sink);
    }
    setup.server->shutdown();
    // Before the output below: formatting the samples allocates megabytes
    // that are the benchmark's, not the program's.
    const double rss_mb = peak_rss_mb();

    double cycles_per_item = 0;
    if (is_sim(spec.kind)) {
        double sum = 0;
        for (const auto& c : refs.cycles) {
            if (!c) throw std::runtime_error("a pool item was never served");
            sum += static_cast<double>(*c);
        }
        cycles_per_item = sum / static_cast<double>(refs.cycles.size());
    } else {
        cycles_per_item = pass->cycles_per_item;
        if (!pass->identical) {
            std::cerr << "perfbench: MISMATCH sim::Sia logits differ from FunctionalEngine\n";
            ++ledger.failed;
        }
    }

    std::ofstream out(opt.out, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + opt.out);
    out.precision(17);
    out << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
        << ",\"seconds\":" << opt.seconds << ",\"trace\":" << (opt.trace ? 1 : 0)
        << ",\"provenance\":{\"compiler\":\"" << PB_COMPILER << "\",\"flags\":\"" << PB_FLAGS
        << "\",\"build_type\":\"" << PB_BUILD_TYPE << "\",\"sia_arch\":\"" << PB_SIA_ARCH
        << "\",\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"workers\":" << kWorkers << ",\"outstanding\":" << spec.outstanding
        << ",\"max_steal_frac\":" << kMaxStealFrac << "}";
    const auto phase_list = [&](double Phases::*field) {
        std::vector<double> v;
        for (const auto& p : phases) v.push_back(p.*field);
        return list(v);
    };
    std::vector<double> totals;
    for (const auto& p : phases) totals.push_back(p.total_s());
    out << ",\"setup\":{\"total_s\":" << list(totals)
        << ",\"calibrate_ms\":" << phase_list(&Phases::calibrate_ms)
        << ",\"convert_ms\":" << phase_list(&Phases::convert_ms)
        << ",\"start_ms\":" << phase_list(&Phases::start_ms)
        << ",\"warmup_ms\":" << phase_list(&Phases::warmup_ms) << "}";
    out << ",\"sections\":[";
    for (std::size_t i = 0; i < sections.size(); ++i) {
        const auto& s = sections[i];
        out << (i ? "," : "") << "{\"traced\":" << (s.traced ? "true" : "false")
            << ",\"wall_s\":" << s.wall_s << ",\"waves\":" << s.waves
            << ",\"wave_items\":" << s.wave_items << ",\"latency_us\":" << list(s.latency_us)
            << ",\"blocks\":[";
        for (std::size_t b = 0; b < s.blocks.size(); ++b) {
            const auto& k = s.blocks[b];
            out << (b ? "," : "") << "[" << k.t0_s << "," << k.t1_s << "," << k.steal_frac
                << "," << (k.kept() ? "true" : "false") << "," << k.first << "," << k.count
                << "]";
        }
        out << "]}";
    }
    out << "],\"attempted\":" << ledger.attempted << ",\"failed\":" << ledger.failed
        << ",\"sim_cycles_per_item\":" << cycles_per_item
        << ",\"exit\":{\"steps_used\":" << ledger.steps_used
        << ",\"steps_offered\":" << ledger.steps_offered << ",\"retired\":" << ledger.retired
        << ",\"responses\":" << ledger.attempted << "}";
    const auto density = [](const snn::LayerDispatchStats& d) { return d.mean_input_density(); };
    const auto steps = refs.dispatch_all.dense_steps + refs.dispatch_all.scatter_steps;
    out << ",\"engine\":{\"dense_step_frac\":"
        << (steps ? static_cast<double>(refs.dispatch_all.dense_steps) / static_cast<double>(steps) : 0.0)
        << ",\"input_density\":" << density(refs.dispatch_layer0) << "}";
    out << ",\"events\":{\"count\":" << in.events << ",\"pixel_steps\":"
        << (spec.kind == Kind::kStreamDvs
                ? kScenes * kSceneWindows * kWindowSteps * kSensorSize * kSensorSize
                : 0)
        << "},\"session_state_bytes\":" << session_state_bytes(*setup.model, in, spec);
    out << ",\"sia\":{\"served_cycles\":";
    write_cycles(out, ledger.cycles, ledger.cycle_items);
    if (pass) {
        out << ",\"pass_cycles\":";
        write_cycles(out, pass->cycles, pass->items);
        out << ",\"pass_host_ms\":" << pass->host_ms << ",\"pass_batch\":";
        write_batch(out, pass->batch);
    }
    if (tracer) {
        out << ",\"served_batch\":";
        write_batch(out, tracer->batch_totals());
    }
    out << "}";
    if (sink) {
        out << ",\"spans\":[";
        const auto spans = sink->spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto& s = spans[i];
            out << (i ? "," : "") << "[\"" << s.name << "\"," << s.id << "," << s.parent << ","
                << s.t0_ns << "," << s.t1_ns << "," << list(s.seqs) << "]";
        }
        out << "]";
    }
    out << ",\"peak_rss_mb\":" << rss_mb << "}\n";
    out.close();
    if (!out) throw std::runtime_error("write to " + opt.out + " failed");
    return ledger.failed == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 2;
    }
}
