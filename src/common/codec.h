// Compact binary encoding for persisted actor state and KV-store records:
// varint / zigzag integers, IEEE doubles, length-prefixed strings and
// vectors, plus CRC32C for storage integrity.

#ifndef AODB_COMMON_CODEC_H_
#define AODB_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace aodb {

/// Append-only binary encoder.
class BufWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  /// LEB128 variable-length unsigned integer.
  void PutVarint(uint64_t v);
  /// ZigZag-encoded signed integer.
  void PutSigned(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }
  void PutDouble(double v);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// Length-prefixed byte string.
  void PutString(const std::string& s);
  void PutBytes(const void* data, size_t len);

  template <typename T, typename Fn>
  void PutVector(const std::vector<T>& v, Fn encode_elem) {
    PutVarint(v.size());
    for (const T& e : v) encode_elem(*this, e);
  }

  /// Pre-sizes the buffer (e.g. to the last frame's size on this thread) so
  /// steady-state encoding appends without reallocating.
  void Reserve(size_t n) { buf_.reserve(n); }

  const std::string& data() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Sequential binary decoder over a byte string. All getters return a
/// Status and leave the cursor unchanged on failure.
class BufReader {
 public:
  explicit BufReader(std::string_view data) : data_(data), pos_(0) {}

  Status GetU8(uint8_t* out);
  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetVarint(uint64_t* out);
  Status GetSigned(int64_t* out);
  Status GetDouble(double* out);
  Status GetBool(bool* out);
  Status GetString(std::string* out);

  template <typename T, typename Fn>
  Status GetVector(std::vector<T>* out, Fn decode_elem) {
    uint64_t n = 0;
    AODB_RETURN_NOT_OK(GetVarint(&n));
    if (n > data_.size()) return Status::Corruption("vector length too large");
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      T elem{};
      AODB_RETURN_NOT_OK(decode_elem(*this, &elem));
      out->push_back(std::move(elem));
    }
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_;
};

/// CRC32C (Castagnoli, software slicing-by-8 implementation) used to checksum
/// storage log records.
uint32_t Crc32c(const void* data, size_t len);
uint32_t Crc32c(const std::string& s);

}  // namespace aodb

#endif  // AODB_COMMON_CODEC_H_
