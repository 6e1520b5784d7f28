// ByteBuffer: append-only binary encoder plus a cursor-based decoder.
// Used by the FITS-lite container, the WAL, the wavelet codec and the
// archive compressor. Fixed-width integers are little-endian; varints use
// LEB128.
#ifndef HEDC_CORE_BYTES_H_
#define HEDC_CORE_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/status.h"

namespace hedc {

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<uint8_t> data) : data_(std::move(data)) {}

  void PutU8(uint8_t v) { data_.push_back(v); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed(bits);
  }

  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      data_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    data_.push_back(static_cast<uint8_t>(v));
  }
  // ZigZag-encoded signed varint.
  void PutSignedVarint(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  void PutBytes(const uint8_t* p, size_t n) {
    data_.insert(data_.end(), p, p + n);
  }

  const std::vector<uint8_t>& data() const { return data_; }
  std::vector<uint8_t>&& TakeData() { return std::move(data_); }
  size_t size() const { return data_.size(); }
  void Clear() { data_.clear(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      data_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> data_;
};

// Reads one LEB128 varint at `p`, advancing it; returns nullptr on
// success, else the corruption message. A tenth byte may carry only
// bit 63. kChecked = false is for hot loops that have already checked
// that ten bytes are readable, which bounds any terminating varint.
template <bool kChecked = true>
inline const char* ReadVarint(const uint8_t*& p, const uint8_t* end,
                              uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (kChecked && p == end) return "truncated varint";
    uint8_t b = *p++;
    if (shift >= 63 && (b & ~uint8_t{1})) return "varint overflow";
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
  }
  *out = v;
  return nullptr;
}

// Sequential reader over an externally-owned byte span. All getters report
// kCorruption on truncated input so callers can surface torn records.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const std::vector<uint8_t>& data)
      : ByteReader(data.data(), data.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ >= size_; }

  Status GetU8(uint8_t* out) { return GetFixed(out); }
  Status GetU16(uint16_t* out) { return GetFixed(out); }
  Status GetU32(uint32_t* out) { return GetFixed(out); }
  Status GetU64(uint64_t* out) { return GetFixed(out); }
  Status GetI64(int64_t* out) {
    uint64_t v = 0;
    HEDC_RETURN_IF_ERROR(GetFixed(&v));
    *out = static_cast<int64_t>(v);
    return Status::Ok();
  }
  Status GetF64(double* out) {
    uint64_t bits = 0;
    HEDC_RETURN_IF_ERROR(GetFixed(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::Ok();
  }

  Status GetVarint(uint64_t* out) {
    const uint8_t* p = data_ + pos_;
    if (const char* error = ReadVarint(p, data_ + size_, out)) {
      return Status::Corruption(error);
    }
    pos_ = static_cast<size_t>(p - data_);
    return Status::Ok();
  }
  Status GetSignedVarint(int64_t* out) {
    uint64_t raw = 0;
    HEDC_RETURN_IF_ERROR(GetVarint(&raw));
    *out = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
    return Status::Ok();
  }

  Status GetString(std::string* out) {
    uint64_t n = 0;
    HEDC_RETURN_IF_ERROR(GetVarint(&n));
    if (n > remaining()) return Status::Corruption("truncated string");
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::Ok();
  }
  Status GetBytes(uint8_t* out, size_t n) {
    if (n > remaining()) return Status::Corruption("truncated bytes");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::Ok();
  }
  Status Skip(size_t n) {
    if (n > remaining()) return Status::Corruption("skip past end");
    pos_ += n;
    return Status::Ok();
  }

 private:
  template <typename T>
  Status GetFixed(T* out) {
    if (sizeof(T) > remaining()) {
      return Status::Corruption("truncated fixed-width field");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint64_t>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    *out = v;
    return Status::Ok();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace hedc

#endif  // HEDC_CORE_BYTES_H_
