#include "common/crc32c.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace rppm {

namespace {

/** The 256-entry lookup table for reflected CRC32C, built at compile
 *  time from the reversed polynomial 0x82F63B78. */
constexpr std::array<uint32_t, 256>
buildTable()
{
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

constexpr std::array<uint32_t, 256> kTable = buildTable();

using Kernel = uint32_t (*)(uint32_t, const void *, size_t);

#if defined(__x86_64__)
/** The SSE4.2 `crc32` instruction computes exactly CRC32C: eight bytes
 *  per step over the bulk (unaligned loads through memcpy), then a byte
 *  tail. Compiled for SSE4.2 regardless of the build's target flags;
 *  only called after the runtime CPU check in selectKernel(). */
__attribute__((target("sse4.2"))) uint32_t
crc32cExtendSse42(uint32_t crc, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t c = crc ^ 0xFFFFFFFFu;
    for (; n >= 8; n -= 8, p += 8) {
        uint64_t word;
        std::memcpy(&word, p, sizeof word);
        c = _mm_crc32_u64(c, word);
    }
    auto c32 = static_cast<uint32_t>(c);
    for (; n > 0; --n, ++p)
        c32 = _mm_crc32_u8(c32, *p);
    return c32 ^ 0xFFFFFFFFu;
}
#endif

Kernel
selectKernel()
{
#if defined(__x86_64__)
    // Explicit init: the first checksum may be taken from another
    // translation unit's static initializer, before the CPU model the
    // builtin reads has been filled in.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        return crc32cExtendSse42;
#endif
    return crc32cExtendPortable;
}

/** The kernel of this process, chosen on first use. A function-local
 *  static, so callers from other static initializers see it set. */
Kernel
activeKernel()
{
    static const Kernel kernel = selectKernel();
    return kernel;
}

} // namespace

uint32_t
crc32cExtendPortable(uint32_t crc, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t c = crc ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i)
        c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

uint32_t
crc32cExtend(uint32_t crc, const void *data, size_t n)
{
    return activeKernel()(crc, data, n);
}

bool
crc32cUsesHardware()
{
    return activeKernel() != crc32cExtendPortable;
}

} // namespace rppm
