/// \file frame.h
/// \brief Length-prefixed wire frames for the cluster RPC transport.
///
/// Every message between cluster processes is one frame:
///
///     [FrameHeader (40 bytes, CRC32C-protected)] [payload bytes]
///
/// The header carries the message type, the sender's rank, a sequence
/// number matching responses to requests, the sender's coordinator *term*
/// (the fencing word: each coordinator incarnation runs under a strictly
/// larger term, and workers reject commands stamped with a stale one, so a
/// zombie coordinator can never split-brain the run), the payload length,
/// and two CRC32C words: one over the payload (the PR 6 integrity word — payloads
/// are the PR 5 codec-encoded row blocks, so corruption must be *detected*
/// and routed into retry/refetch, never silently consumed) and one over the
/// header itself (a damaged header means the byte stream is unframeable:
/// the connection is severed and rebuilt rather than resynchronized).
///
/// All socket I/O here is poll-based with relative deadlines: a frame that
/// cannot be fully read or written inside its deadline surfaces
/// `kUnavailable`, which is exactly what the `RetryTransient` path treats
/// as retryable. Partial reads/writes and EINTR are looped over — a frame
/// either arrives whole or the connection is declared broken.
///
/// Fault sites `net.send` and `net.recv` (common/fault.h) hook the two
/// entry points with wire-shaped kinds: drop (frame silently lost), delay
/// (stall), corrupt (payload bits flipped *after* the CRC is computed, so
/// the receiver's integrity word catches it), disconnect (socket severed).

#pragma once

#include <cstdint>
#include <string>

#include "hongtu/common/status.h"

namespace hongtu {
namespace net {

/// Cluster message vocabulary (see net/cluster.h for the protocol).
enum class MsgType : uint16_t {
  kIdent = 1,     ///< first frame on every connection: header.src_rank
  kHeartbeat,     ///< one-way liveness beacon (worker -> coordinator)
  kHello,         ///< worker ready: {rank, listen addr, pid}
  kEpoch,         ///< coordinator -> worker: run one training epoch
  kEpochDone,     ///< worker -> coordinator: loss + gradients (or failure)
  kEval,          ///< coordinator -> worker: run one forward-only pass
  kEvalDone,      ///< worker -> coordinator: split correct/total counts
  kAbort,         ///< coordinator -> workers: cancel the named run
  kShutdown,      ///< coordinator -> worker: exit cleanly
  kFetchRows,     ///< worker -> worker: batched FetchPlan group pull
  kGradPush,      ///< worker -> worker: batched gradient group push
  kAck,           ///< generic success response (payload is reply data)
  kError,         ///< response carrying a serialized Status
  // Appended after kError: intra-epoch (step-granular) recovery vocabulary.
  kPeerUpdate,      ///< coordinator -> workers: a rank has a new address
  kSyncState,       ///< recovering worker -> peer: consumed/pushed watermarks
  kFetchPush,       ///< recovering worker -> peer: re-pull a delivered push
  kAdoptPartition,  ///< coordinator -> survivor: host a dead rank's partition
  // Appended after kAdoptPartition: coordinator fault-tolerance vocabulary.
  kCoordUpdate,  ///< restarted coordinator -> worker: {term, new address}
};

const char* MsgTypeName(MsgType t);

constexpr uint32_t kFrameMagic = 0x48544e46u;  // "HTNF"
constexpr uint16_t kFlagResponse = 0x1;        ///< frame answers `seq`

/// Fixed-size wire header. Serialized little-endian, field by field; the
/// final word is CRC32C over the preceding 36 bytes.
struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint16_t type = 0;
  uint16_t flags = 0;
  uint32_t src_rank = 0;
  uint32_t seq = 0;
  uint64_t term = 0;
  uint64_t payload_len = 0;
  uint32_t payload_crc = 0;
  uint32_t header_crc = 0;
};
constexpr size_t kFrameHeaderBytes = 40;

/// Frames larger than this are rejected as stream desync (no legitimate
/// message approaches it: the largest payloads are per-batch row blocks).
constexpr uint64_t kMaxPayloadBytes = 1ull << 31;

/// The kFrameHeaderBytes wire bytes of `h`, ending in the header CRC
/// computed here (`h.header_crc` is ignored).
std::string EncodeFrameHeader(const FrameHeader& h);

/// Decodes `n` header bytes into `*h`. kDataLoss on a short input or a
/// header CRC mismatch; kInvalidArgument on a bad magic or a payload length
/// past kMaxPayloadBytes. Every failure means the stream is desynchronized.
Status DecodeFrameHeader(const void* data, size_t n, FrameHeader* h);

/// One decoded message.
struct Frame {
  MsgType type = MsgType::kAck;
  uint16_t flags = 0;
  int src_rank = -1;
  uint32_t seq = 0;
  /// Coordinator term the sender believes in (0 until one is learned).
  /// Stamped by the transport on send; carried to handlers on receive.
  uint64_t term = 0;
  std::string payload;

  bool is_response() const { return (flags & kFlagResponse) != 0; }
};

/// Monotonic clock in seconds (deadline arithmetic).
double MonotonicSeconds();

/// Writes/reads exactly `n` bytes, looping over partial transfers and
/// EINTR, polling with `deadline_s` relative seconds (< 0 = block forever).
/// Deadline expiry and peer close both return kUnavailable.
Status WriteFull(int fd, const void* buf, size_t n, double deadline_s);
Status ReadFull(int fd, void* buf, size_t n, double deadline_s);

/// Serializes and writes one frame (header CRCs computed here). Pokes fault
/// site `net.send`: drop returns OK without writing (the peer's deadline
/// machinery sees the loss), corrupt flips a payload bit after the CRC so
/// the receiver detects it, disconnect shuts the socket down and returns
/// kUnavailable.
Status WriteFrame(int fd, const Frame& f, double deadline_s);

/// Reads one frame. Pokes fault site `net.recv` once per frame.
///
/// Outcomes:
///  - OK, *dropped = false: `*f` holds an intact frame.
///  - OK, *dropped = true : a frame was consumed but injected as lost
///    (drop/transient kinds); the caller skips it and reads again.
///  - kDataLoss: the header was intact but the payload failed its CRC
///    (real or injected corruption). `f->type/seq/src_rank` are valid, so a
///    server can answer kError(kDataLoss) and the stream stays framed.
///  - kUnavailable: deadline, EOF, or injected disconnect — connection is
///    unusable.
///  - other codes: malformed header (desync); sever the connection.
Status ReadFrame(int fd, Frame* f, double deadline_s, bool* dropped);

}  // namespace net
}  // namespace hongtu
