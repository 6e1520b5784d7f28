#include "core/crc32.h"

namespace hedc {
namespace {

// Slicing-by-8 tables: entries[0] is the classic bytewise table;
// entries[k][b] is the CRC of byte b followed by k zero bytes, so eight
// input bytes fold into the register with eight independent lookups.
struct Crc32Table {
  uint32_t entries[8][256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xff] ^ (prev >> 8);
      }
    }
  }
};

const Crc32Table& Table() {
  static const Crc32Table* const kTable = new Crc32Table();
  return *kTable;
}

// Little-endian 32-bit load; byte-assembled so it is correct on any host
// and compiles to a single load on little-endian ones.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed) {
  const auto& t = Table().entries;
  uint32_t c = seed ^ 0xffffffffu;
  for (; n >= 8; n -= 8, data += 8) {
    uint32_t lo = LoadLe32(data) ^ c;
    uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++data) {
    c = t[0][(c ^ *data) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace hedc
