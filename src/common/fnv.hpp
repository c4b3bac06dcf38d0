// FNV-1a, 64-bit: the one hash behind every packet-trace digest, routing
// table digest and determinism gate in the repository.  Not cryptographic;
// it only has to make an accidental divergence between two runs visible.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lbrm {

struct Fnv1a {
    static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;
    static constexpr std::uint64_t kPrime = 1099511628211ULL;

    std::uint64_t h = kOffsetBasis;

    void feed_byte(std::uint8_t b) {
        h ^= b;
        h *= kPrime;
    }
    void feed(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) feed_byte(p[i]);
    }
    /// The object representation of `v` (host byte order).
    template <typename T>
    void feed_value(T v) {
        feed(&v, sizeof v);
    }
    /// The eight bytes of `v`, least significant first on every host.
    void feed_u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) feed_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
};

}  // namespace lbrm
