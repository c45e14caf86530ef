/// \file wire.h
/// \brief Little-endian payload serialization for cluster RPC messages.
///
/// Frame payloads (net/frame.h) are flat byte strings; this header gives
/// the two sides a matched pair of append-writer and checked-reader so the
/// protocol code in net/cluster.cc never hand-rolls offsets. The reader
/// returns `kDataLoss` on truncation — a short payload that passed its
/// CRC means the *sender* built it wrong, but routing it into the
/// transient family lets the RPC layer retry instead of wedging.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "hongtu/common/status.h"

namespace hongtu {
namespace net {

/// Appends fixed-width little-endian fields to a payload string.
class WireWriter {
 public:
  void U32(uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, 4);
  }
  void U64(uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, 8);
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }
  void Bytes(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  std::string Take() { return std::move(buf_); }
  const std::string& buf() const { return buf_; }

 private:
  std::string buf_;
};

/// Reads the fields back in order; every read checks remaining length.
class WireReader {
 public:
  explicit WireReader(const std::string& payload)
      : p_(reinterpret_cast<const unsigned char*>(payload.data())),
        n_(payload.size()) {}

  Result<uint32_t> U32() {
    HT_RETURN_IF_ERROR(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[off_ + i]) << (8 * i);
    off_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    HT_RETURN_IF_ERROR(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[off_ + i]) << (8 * i);
    off_ += 8;
    return v;
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
  Result<std::string> Str() {
    HT_ASSIGN_OR_RETURN(uint64_t len, U64());
    HT_RETURN_IF_ERROR(Need(len));
    std::string s(reinterpret_cast<const char*>(p_ + off_),
                  static_cast<size_t>(len));
    off_ += static_cast<size_t>(len);
    return s;
  }
  /// Copies `n` raw bytes into `dst`.
  Status Raw(void* dst, size_t n) {
    HT_RETURN_IF_ERROR(Need(n));
    std::memcpy(dst, p_ + off_, n);
    off_ += n;
    return Status::OK();
  }
  /// Borrow a pointer to `n` raw bytes without copying (valid while the
  /// backing payload string lives).
  Result<const unsigned char*> View(size_t n) {
    HT_RETURN_IF_ERROR(Need(n));
    const unsigned char* p = p_ + off_;
    off_ += n;
    return p;
  }

  size_t remaining() const { return n_ - off_; }

 private:
  Status Need(uint64_t n) const {
    // Not `off_ + n > n_`: a hostile length near 2^64 would wrap past it.
    if (n > n_ - off_) {
      return Status::DataLoss("truncated wire payload (need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(n_ - off_) + ")");
    }
    return Status::OK();
  }

  const unsigned char* p_;
  size_t n_;
  size_t off_ = 0;
};

/// kError response payloads carry a Status: {code u32, message str}.
inline std::string EncodeStatusPayload(const Status& st) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(static_cast<int8_t>(st.code())));
  w.Str(st.message());
  return w.Take();
}

inline Status DecodeStatusPayload(const std::string& payload) {
  WireReader r(payload);
  auto code = r.U32();
  auto msg = r.Str();
  if (!code.ok() || !msg.ok()) {
    return Status::DataLoss("malformed kError payload");
  }
  return Status(static_cast<StatusCode>(code.ValueOrDie()),
                "remote: " + msg.ValueOrDie());
}

}  // namespace net
}  // namespace hongtu
