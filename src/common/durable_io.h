// Crash-safe file primitives shared by every emitter in the repo.
//
// Two failure modes motivate this header:
//   * torn output — a truncating ofstream that dies mid-write leaves a
//     half-document the strict parsers reject wholesale, losing a whole
//     campaign's checkpoint.  atomic_write() publishes via the classic
//     sibling-temp + fsync + rename dance, so readers only ever observe the
//     old complete document or the new complete document, never a mixture;
//   * silent corruption — the append-only journal must detect a torn or
//     bit-flipped suffix without trusting the data it frames.  crc32() is
//     the IEEE reflected polynomial (0xEDB88320), the checksum every frame
//     carries.
#pragma once

#include <cstddef>
#include <string>

#include "common/units.h"

namespace collie::durable_io {

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `n` bytes.  `seed` chains
// incremental computation: crc32(b, crc32(a)) == crc32(a + b).
u32 crc32(const void* data, std::size_t n, u32 seed = 0);
inline u32 crc32(const std::string& s, u32 seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

// All-or-nothing replacement of `path` with `content`: write a sibling
// temporary, fsync it, rename over `path`, fsync the directory.  Returns
// false (with *error set, when given) on any failure; the target is then
// untouched — the temporary is unlinked best-effort.
bool atomic_write(const std::string& path, const std::string& content,
                  std::string* error = nullptr);

// The whole file at `path` into *out.  False, with errno from the failing
// call and *out untouched, when it cannot be opened or read (a directory
// fails with EISDIR).
bool read_file(const std::string& path, std::string* out);

}  // namespace collie::durable_io
