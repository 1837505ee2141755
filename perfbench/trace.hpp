// Bench-side tracing for the traced run: spans kept in memory until the
// run ends, and a core::Backend decorator that records the wave and span
// boundaries of every batch the server dispatches. Nothing here runs in
// an untraced run: those serve through the bare backend.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One traced interval. Spans of one request carry its admission
/// sequence number (the server pins it to Request::rng_stream); a
/// backend span lists the sequence numbers of every request it ran.
struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = -1;  ///< id of the span that caused this one, -1 = root
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    std::vector<std::uint64_t> seqs;
};

/// Sum the residency accounting of `part` into `total`.
inline void add_batch_stats(sia::sim::SiaBatchStats& total,
                            const sia::sim::SiaBatchStats& part) {
    total.batch += part.batch;
    total.weight_bytes_streamed += part.weight_bytes_streamed;
    total.weight_bytes_sequential += part.weight_bytes_sequential;
    total.resident_cycles += part.resident_cycles;
    total.sequential_cycles += part.sequential_cycles;
}

/// Thread-safe in-memory span store; times are nanoseconds since the
/// sink's epoch.
class SpanSink {
public:
    explicit SpanSink(Clock::time_point epoch) : epoch_(epoch) {}

    [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
    }
    [[nodiscard]] std::int64_t now_ns() const { return ns(Clock::now()); }
    /// Store `span` and return the id assigned to it.
    std::int64_t add(Span span) {
        const std::lock_guard lock(mutex_);
        span.id = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(std::move(span));
        return spans_.back().id;
    }
    /// Move span `id`'s end out to `t1_ns` if that is later.
    void extend(std::int64_t id, std::int64_t t1_ns) {
        const std::lock_guard lock(mutex_);
        auto& span = spans_.at(static_cast<std::size_t>(id));
        span.t1_ns = std::max(span.t1_ns, t1_ns);
    }
    [[nodiscard]] std::vector<Span> spans() const {
        const std::lock_guard lock(mutex_);
        return spans_;
    }

private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Forwards every call to the real backend. prepare() opens a "wave"
/// span (the runner calls it once per wave, before the fan-out), each
/// run_span() records a "span" child of it and stretches the wave to
/// the span's end. The residency stats the runner drains after every
/// wave are summed so the traced run can report them.
class TracingBackend final : public sia::core::Backend {
public:
    TracingBackend(std::shared_ptr<sia::core::Backend> inner, SpanSink& sink)
        : Backend(inner->model()), inner_(std::move(inner)), sink_(sink) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }
    void prepare(std::size_t workers) override {
        wave_.store(sink_.add({.name = "wave", .t0_ns = sink_.now_ns()}));
        inner_->prepare(workers);
    }
    [[nodiscard]] std::size_t preferred_span(std::size_t n,
                                             std::size_t workers) const noexcept override {
        return inner_->preferred_span(n, workers);
    }
    void run_span(std::size_t worker, std::span<const sia::core::Request> requests,
                  std::span<sia::core::Response> responses, std::size_t base,
                  std::uint64_t seed) override {
        Span span{.name = "span", .parent = wave_.load(), .t0_ns = sink_.now_ns()};
        inner_->run_span(worker, requests, responses, base, seed);
        span.t1_ns = sink_.now_ns();
        for (const auto& r : requests) span.seqs.push_back(r.rng_stream.value_or(~0ULL));
        sink_.extend(span.parent, span.t1_ns);
        sink_.add(std::move(span));
    }
    [[nodiscard]] sia::sim::SiaBatchStats take_sim_batch_stats() noexcept override {
        auto stats = inner_->take_sim_batch_stats();
        const std::lock_guard lock(stats_mutex_);
        add_batch_stats(totals_, stats);
        return stats;
    }
    /// Residency stats summed over every wave since construction.
    [[nodiscard]] sia::sim::SiaBatchStats batch_totals() {
        const std::lock_guard lock(stats_mutex_);
        return totals_;
    }

private:
    std::shared_ptr<sia::core::Backend> inner_;
    SpanSink& sink_;
    std::atomic<std::int64_t> wave_{-1};
    std::mutex stats_mutex_;
    sia::sim::SiaBatchStats totals_;
};

}  // namespace perfbench
