// Binary spike maps: the signals exchanged between SNN layers.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sia::snn {

/// Dense binary spike map over a CHW volume for one timestep.
///
/// Storage is bit-packed into 64-bit words (flat CHW index `i` lives at
/// bit `i % 64` of word `i / 64`; bits past `size()` in the last word
/// are always zero), with a maintained set-bit count so `count()` is
/// O(1) — it is read per layer per timestep by both engines' dispatch
/// and cycle accounting. `for_each_spike` iterates set bits in
/// ascending flat order by skipping zero words and peeling bits with
/// count-trailing-zeros; that is the traversal the scatter-form kernels
/// in snn::compute are built on.
class SpikeMap {
public:
    static constexpr std::int64_t kWordBits = 64;

    SpikeMap() = default;
    SpikeMap(std::int64_t channels, std::int64_t height, std::int64_t width)
        : c_(channels), h_(height), w_(width),
          words_(static_cast<std::size_t>((channels * height * width + kWordBits - 1) /
                                          kWordBits),
                 0) {}

    [[nodiscard]] std::int64_t channels() const noexcept { return c_; }
    [[nodiscard]] std::int64_t height() const noexcept { return h_; }
    [[nodiscard]] std::int64_t width() const noexcept { return w_; }
    [[nodiscard]] std::int64_t size() const noexcept { return c_ * h_ * w_; }

    [[nodiscard]] bool get(std::int64_t c, std::int64_t y, std::int64_t x) const noexcept {
        return get_flat((c * h_ + y) * w_ + x);
    }
    void set(std::int64_t c, std::int64_t y, std::int64_t x, bool v) noexcept {
        set_flat((c * h_ + y) * w_ + x, v);
    }

    [[nodiscard]] bool get_flat(std::int64_t i) const noexcept {
        return (words_[static_cast<std::size_t>(i >> 6)] >>
                (static_cast<std::uint64_t>(i) & 63U)) &
               1U;
    }
    void set_flat(std::int64_t i, bool v) noexcept {
        std::uint64_t& word = words_[static_cast<std::size_t>(i >> 6)];
        const std::uint64_t mask = std::uint64_t{1} << (static_cast<std::uint64_t>(i) & 63U);
        if (((word & mask) != 0) == v) return;
        word ^= mask;
        count_ += v ? 1 : -1;
    }

    void clear() noexcept {
        std::fill(words_.begin(), words_.end(), 0);
        count_ = 0;
    }

    /// Number of set bits (spike count this timestep). O(1).
    [[nodiscard]] std::int64_t count() const noexcept { return count_; }

    /// Set bits in flat range [begin, end): masked popcount over the
    /// packed words, O(words in range). Used for per-channel counts
    /// (`count_range(c * plane, (c + 1) * plane)`).
    [[nodiscard]] std::int64_t count_range(std::int64_t begin,
                                           std::int64_t end) const noexcept {
        if (begin >= end) return 0;
        const std::int64_t first = begin >> 6;
        const std::int64_t last = (end - 1) >> 6;
        const std::uint64_t head =
            ~std::uint64_t{0} << (static_cast<std::uint64_t>(begin) & 63U);
        const std::uint64_t tail =
            ~std::uint64_t{0} >> (63U - (static_cast<std::uint64_t>(end - 1) & 63U));
        if (first == last) {
            return std::popcount(words_[static_cast<std::size_t>(first)] & head & tail);
        }
        std::int64_t n = std::popcount(words_[static_cast<std::size_t>(first)] & head);
        for (std::int64_t w = first + 1; w < last; ++w) {
            n += std::popcount(words_[static_cast<std::size_t>(w)]);
        }
        return n + std::popcount(words_[static_cast<std::size_t>(last)] & tail);
    }

    /// Visit every set bit in ascending flat-CHW order: word-skip over
    /// zero words, ctz + clear-lowest-bit within a word.
    template <typename Visit>
    void for_each_spike(Visit&& visit) const {
        const auto nwords = static_cast<std::int64_t>(words_.size());
        for (std::int64_t w = 0; w < nwords; ++w) {
            std::uint64_t bits = words_[static_cast<std::size_t>(w)];
            while (bits != 0) {
                visit(w * kWordBits + std::countr_zero(bits));
                bits &= bits - 1;
            }
        }
    }

    /// Overwrite packed word `w` wholesale, maintaining the set-bit
    /// count — the fused fire kernels' spike-emission path (one word
    /// per 64-neuron block, no per-bit calls). For the final word the
    /// caller must have masked bits past size() (the kernels do; the
    /// class invariant that trailing bits are zero is preserved, not
    /// re-enforced here).
    void set_word(std::int64_t w, std::uint64_t bits) noexcept {
        std::uint64_t& slot = words_[static_cast<std::size_t>(w)];
        count_ += std::popcount(bits) - std::popcount(slot);
        slot = bits;
    }

    /// Overwrite flat bits [dst_begin, dst_begin + count) with `src`'s
    /// bits [src_begin, src_begin + count), word-shifted (one or two
    /// source words per destination word); bits outside the range are
    /// untouched and the set-bit count is maintained. This moves a
    /// channel slice (a contiguous CHW bit range that generally starts
    /// mid-word) between a slice-geometry map and the full layer map.
    /// Throws std::out_of_range when either range leaves its map.
    void copy_bits(const SpikeMap& src, std::int64_t src_begin, std::int64_t dst_begin,
                   std::int64_t count) {
        if (count <= 0) return;
        if (src_begin < 0 || dst_begin < 0 || src_begin + count > src.size() ||
            dst_begin + count > size()) {
            throw std::out_of_range("SpikeMap::copy_bits: range outside the map");
        }
        const std::int64_t dst_end = dst_begin + count;
        const std::int64_t shift = src_begin - dst_begin;
        for (std::int64_t w = dst_begin >> 6; w <= (dst_end - 1) >> 6; ++w) {
            const std::int64_t lo = std::max(dst_begin, w * kWordBits) - w * kWordBits;
            const std::int64_t hi = std::min(dst_end, (w + 1) * kWordBits) - w * kWordBits;
            const std::uint64_t mask = (~std::uint64_t{0} >> (kWordBits - (hi - lo)))
                                       << static_cast<std::uint64_t>(lo);
            const std::uint64_t bits = src.bits_from(w * kWordBits + shift) & mask;
            set_word(w, (words_[static_cast<std::size_t>(w)] & ~mask) | bits);
        }
    }

    /// Packed 64-bit words (the wire/serialization representation).
    /// Bits past size() are guaranteed zero, so equality of raw() is
    /// equality of the maps.
    [[nodiscard]] const std::vector<std::uint64_t>& raw() const noexcept { return words_; }

    /// Replace the packed words wholesale (deserialization). Must match
    /// the geometry's word count; trailing bits past size() are cleared
    /// and the maintained count is recomputed.
    void set_words(std::vector<std::uint64_t> words) {
        if (words.size() != words_.size()) {
            throw std::invalid_argument("SpikeMap::set_words: word count mismatch");
        }
        words_ = std::move(words);
        const std::int64_t tail_bits = size() & 63;
        if (tail_bits != 0 && !words_.empty()) {
            words_.back() &= ~std::uint64_t{0} >>
                             (64U - static_cast<std::uint64_t>(tail_bits));
        }
        count_ = 0;
        for (const std::uint64_t w : words_) count_ += std::popcount(w);
    }

    [[nodiscard]] bool operator==(const SpikeMap& other) const noexcept {
        return c_ == other.c_ && h_ == other.h_ && w_ == other.w_ &&
               words_ == other.words_;
    }

private:
    /// The 64 flat bits starting at `bit` (which may be negative or run
    /// past the end; such bits read as zero), bit k of the result being
    /// flat bit `bit + k`.
    [[nodiscard]] std::uint64_t bits_from(std::int64_t bit) const noexcept {
        const auto word = [&](std::int64_t w) {
            return w >= 0 && w < static_cast<std::int64_t>(words_.size())
                       ? words_[static_cast<std::size_t>(w)]
                       : std::uint64_t{0};
        };
        const std::int64_t w = bit >> 6;  // floor division, negative bits too
        const auto off = static_cast<std::uint64_t>(bit & 63);
        if (off == 0) return word(w);
        return (word(w) >> off) | (word(w + 1) << (64U - off));
    }

    std::int64_t c_ = 0;
    std::int64_t h_ = 0;
    std::int64_t w_ = 0;
    std::vector<std::uint64_t> words_;
    std::int64_t count_ = 0;
};

/// A spike train: one SpikeMap per timestep (all same geometry).
using SpikeTrain = std::vector<SpikeMap>;

}  // namespace sia::snn
