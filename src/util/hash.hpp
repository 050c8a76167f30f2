// FNV-1a 64-bit: the checksum of the on-disk segment format
// (src/persist, docs/PERSIST.md). Records are addressed by their full
// canonical key, in memory and on disk; this digest only detects torn
// or corrupted frames, so its bytes are part of the file format and
// must not change. Living in util keeps persist free of any dispatch
// dependency (persist sits on util only).
#pragma once

#include <cstdint>
#include <string_view>

namespace thermo {

/// FNV-1a 64-bit over arbitrary bytes (offset basis 0xcbf29ce484222325,
/// prime 0x100000001b3 — the published reference parameters). Also the
/// per-record checksum of the persist segment format (docs/PERSIST.md):
/// not cryptographic, but a single bit flip anywhere in a frame changes
/// the digest, which is exactly the torn-write/corruption detection the
/// store needs.
std::uint64_t fnv1a64(std::string_view bytes);

/// fnv1a64 continued from a previous digest (`seed`), so a checksum can
/// be computed over several buffers without concatenating them.
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed);

}  // namespace thermo
