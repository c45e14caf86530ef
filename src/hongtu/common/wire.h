/// \file wire.h
/// \brief The one little-endian, bounds-checked cursor behind every binary
/// format: cluster RPC payloads and frame headers (net/), the cluster
/// journal, HTCK checkpoints (engine/checkpoint.h) and HTDS dataset files
/// (graph/io.h).
///
/// `WireWriter` appends fixed-width little-endian fields to a byte string;
/// `WireReader` reads them back in order and checks every read against the
/// bytes left, so no decoder hand-rolls offsets. Every length read off the
/// input is checked before anything is sized by it (`Fits`, `Count`), which
/// keeps a hostile length from over-allocating. Failures are `kDataLoss`;
/// decoders with a different contract (HTDS files return `kIoError`) map
/// the code at their boundary.
///
/// Bulk arrays (`Bytes`, `Raw`, `Vec`) are copied in host byte order, which
/// is the little-endian wire order on every host this code targets.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "hongtu/common/status.h"

namespace hongtu {

/// Appends fixed-width little-endian fields to a byte string.
class WireWriter {
 public:
  void U16(uint16_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// A u64 length, then the bytes.
  void Str(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }
  /// A u64 element count, then the elements.
  template <typename T>
  void Vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable<T>::value, "raw element copy");
    U64(v.size());
    Bytes(v.data(), v.size() * sizeof(T));
  }
  void Bytes(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  std::string Take() { return std::move(buf_); }
  const std::string& buf() const { return buf_; }

 private:
  template <typename T>
  void Put(T v) {
    char b[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<char>(static_cast<uint64_t>(v) >> (8 * i));
    }
    buf_.append(b, sizeof(T));
  }

  std::string buf_;
};

/// Reads fields back in order; every read checks the remaining length. The
/// reader borrows its input, which must outlive it.
class WireReader {
 public:
  WireReader(const void* data, size_t n)
      : p_(static_cast<const unsigned char*>(data)), n_(n) {}
  explicit WireReader(const std::string& payload)
      : WireReader(payload.data(), payload.size()) {}

  Result<uint16_t> U16() { return Get<uint16_t>(); }
  Result<uint32_t> U32() { return Get<uint32_t>(); }
  Result<uint64_t> U64() { return Get<uint64_t>(); }
  Result<int32_t> I32() {
    HT_ASSIGN_OR_RETURN(uint32_t v, U32());
    return static_cast<int32_t>(v);
  }
  Result<int64_t> I64() {
    HT_ASSIGN_OR_RETURN(uint64_t v, U64());
    return static_cast<int64_t>(v);
  }
  Result<double> F64() {
    HT_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// Reads a u64 element count and checks that `count` elements of
  /// `elem_bytes` each fit in the bytes that follow it.
  Result<uint64_t> Count(uint64_t elem_bytes) {
    HT_ASSIGN_OR_RETURN(uint64_t count, U64());
    HT_RETURN_IF_ERROR(Fits(count, elem_bytes));
    return count;
  }
  Result<std::string> Str() {
    HT_ASSIGN_OR_RETURN(uint64_t len, Count(1));
    HT_ASSIGN_OR_RETURN(const unsigned char* p, View(len));
    return std::string(reinterpret_cast<const char*>(p), len);
  }
  template <typename T>
  Status Vec(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable<T>::value, "raw element copy");
    HT_ASSIGN_OR_RETURN(uint64_t count, Count(sizeof(T)));
    out->resize(static_cast<size_t>(count));
    return Raw(out->data(), out->size() * sizeof(T));
  }
  /// Copies `n` raw bytes into `dst`.
  Status Raw(void* dst, size_t n) {
    HT_RETURN_IF_ERROR(Fits(n, 1));
    if (n > 0) std::memcpy(dst, p_ + off_, n);
    off_ += n;
    return Status::OK();
  }
  /// Borrows a pointer to `n` raw bytes without copying.
  Result<const unsigned char*> View(size_t n) {
    HT_RETURN_IF_ERROR(Fits(n, 1));
    const unsigned char* p = p_ + off_;
    off_ += n;
    return p;
  }

  /// OK when `count` elements of `elem_bytes` each fit in the remaining
  /// bytes. Tested as a quotient: a hostile count can make the product wrap.
  Status Fits(uint64_t count, uint64_t elem_bytes) const {
    if (elem_bytes != 0 && count > remaining() / elem_bytes) {
      return Status::DataLoss(
          "truncated input (need " + std::to_string(count) + " x " +
          std::to_string(elem_bytes) + " bytes, have " +
          std::to_string(remaining()) + ")");
    }
    return Status::OK();
  }

  size_t remaining() const { return n_ - off_; }

 private:
  template <typename T>
  Result<T> Get() {
    HT_RETURN_IF_ERROR(Fits(sizeof(T), 1));
    uint64_t v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<uint64_t>(p_[off_ + i]) << (8 * i);
    }
    off_ += sizeof(T);
    return static_cast<T>(v);
  }

  const unsigned char* p_;
  size_t n_;
  size_t off_ = 0;
};

}  // namespace hongtu
