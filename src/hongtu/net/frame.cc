#include "hongtu/net/frame.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "hongtu/common/crc32c.h"
#include "hongtu/common/fault.h"
#include "hongtu/common/wire.h"

namespace hongtu {
namespace net {

namespace {

/// Remaining poll budget in whole milliseconds; -1 = infinite. Returns 0
/// when the deadline already passed (poll returns immediately).
int PollTimeoutMs(double deadline_abs) {
  if (deadline_abs < 0) return -1;
  const double left = deadline_abs - MonotonicSeconds();
  if (left <= 0) return 0;
  const double ms = left * 1e3;
  return ms > 2147483000.0 ? 2147483000 : static_cast<int>(ms) + 1;
}

}  // namespace

std::string EncodeFrameHeader(const FrameHeader& h) {
  WireWriter w;
  w.U32(h.magic);
  w.U16(h.type);
  w.U16(h.flags);
  w.U32(h.src_rank);
  w.U32(h.seq);
  w.U64(h.term);
  w.U64(h.payload_len);
  w.U32(h.payload_crc);
  w.U32(Crc32c(w.buf().data(), w.buf().size()));
  return w.Take();
}

Status DecodeFrameHeader(const void* data, size_t n, FrameHeader* h) {
  WireReader r(data, n);
  HT_ASSIGN_OR_RETURN(h->magic, r.U32());
  HT_ASSIGN_OR_RETURN(h->type, r.U16());
  HT_ASSIGN_OR_RETURN(h->flags, r.U16());
  HT_ASSIGN_OR_RETURN(h->src_rank, r.U32());
  HT_ASSIGN_OR_RETURN(h->seq, r.U32());
  HT_ASSIGN_OR_RETURN(h->term, r.U64());
  HT_ASSIGN_OR_RETURN(h->payload_len, r.U64());
  HT_ASSIGN_OR_RETURN(h->payload_crc, r.U32());
  HT_ASSIGN_OR_RETURN(h->header_crc, r.U32());
  if (h->header_crc != Crc32c(data, kFrameHeaderBytes - 4)) {
    return Status::DataLoss("frame header CRC mismatch (stream desync)");
  }
  if (h->magic != kFrameMagic) {
    return Status::Invalid("bad frame magic (stream desync)");
  }
  if (h->payload_len > kMaxPayloadBytes) {
    return Status::Invalid("frame payload length " +
                           std::to_string(h->payload_len) +
                           " exceeds the frame size cap (stream desync)");
  }
  return Status::OK();
}

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kIdent: return "ident";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kHello: return "hello";
    case MsgType::kEpoch: return "epoch";
    case MsgType::kEpochDone: return "epoch_done";
    case MsgType::kEval: return "eval";
    case MsgType::kEvalDone: return "eval_done";
    case MsgType::kAbort: return "abort";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kFetchRows: return "fetch_rows";
    case MsgType::kGradPush: return "grad_push";
    case MsgType::kAck: return "ack";
    case MsgType::kError: return "error";
    case MsgType::kPeerUpdate: return "peer_update";
    case MsgType::kSyncState: return "sync_state";
    case MsgType::kFetchPush: return "fetch_push";
    case MsgType::kAdoptPartition: return "adopt_partition";
    case MsgType::kCoordUpdate: return "coord_update";
  }
  return "?";
}

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status WriteFull(int fd, const void* buf, size_t n, double deadline_s) {
  const double deadline_abs =
      deadline_s < 0 ? -1.0 : MonotonicSeconds() + deadline_s;
  const unsigned char* p = static_cast<const unsigned char*>(buf);
  size_t off = 0;
  while (off < n) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, PollTimeoutMs(deadline_abs));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll(POLLOUT): ") +
                             std::strerror(errno));
    }
    if (pr == 0) return Status::Unavailable("net send deadline expired");
    if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) {
      return Status::Unavailable("net send: connection broken");
    }
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE -> kUnavailable, not
    // a process-wide SIGPIPE.
    const ssize_t w = ::send(fd, p + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable(std::string("net send: ") +
                                   std::strerror(errno));
      }
      return Status::IoError(std::string("net send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status ReadFull(int fd, void* buf, size_t n, double deadline_s) {
  const double deadline_abs =
      deadline_s < 0 ? -1.0 : MonotonicSeconds() + deadline_s;
  unsigned char* p = static_cast<unsigned char*>(buf);
  size_t off = 0;
  while (off < n) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, PollTimeoutMs(deadline_abs));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll(POLLIN): ") +
                             std::strerror(errno));
    }
    if (pr == 0) return Status::Unavailable("net recv deadline expired");
    const ssize_t r = ::recv(fd, p + off, n - off, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == ECONNRESET) {
        return Status::Unavailable("net recv: connection reset");
      }
      return Status::IoError(std::string("net recv: ") + std::strerror(errno));
    }
    if (r == 0) return Status::Unavailable("net recv: peer closed");
    off += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteFrame(int fd, const Frame& f, double deadline_s) {
  // The bytes sent: the caller's payload, or a flipped copy of it when an
  // armed net.send corrupt fault fires (the only case that pays a copy).
  const std::string* payload = &f.payload;
  std::string corrupted;
  FrameHeader h;
  h.type = static_cast<uint16_t>(f.type);
  h.flags = f.flags;
  h.src_rank = static_cast<uint32_t>(f.src_rank);
  h.seq = f.seq;
  h.term = f.term;
  h.payload_len = f.payload.size();
  h.payload_crc = Crc32c(f.payload.data(), f.payload.size());

  switch (fault::Check(fault::Site::kNetSend)) {
    case fault::Kind::kNone:
    case fault::Kind::kKill:
      break;
    case fault::Kind::kTransient:
      return Status::Unavailable("injected transient fault at net.send");
    case fault::Kind::kPermanent:
      return Status::Internal("injected permanent fault at net.send");
    case fault::Kind::kDrop:
      // The frame vanishes in flight: report success, write nothing. The
      // peer's deadline (and the caller's retry) is what a real loss
      // exercises.
      return Status::OK();
    case fault::Kind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(fault::kDelayStallSeconds));
      break;
    case fault::Kind::kDisconnect:
      ::shutdown(fd, SHUT_RDWR);
      return Status::Unavailable("injected disconnect at net.send");
    case fault::Kind::kCorrupt:
      // Flip a payload bit *after* the CRC was computed: the receiver's
      // integrity word must catch it (empty payloads corrupt the CRC word
      // itself via the header path — flip a header-adjacent payload is
      // impossible, so corrupt the CRC instead).
      if (!f.payload.empty()) {
        corrupted = f.payload;
        corrupted[corrupted.size() / 2] =
            static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x40);
        payload = &corrupted;
      } else {
        h.payload_crc ^= 0xdeadbeefu;
      }
      break;
  }

  const std::string hdr = EncodeFrameHeader(h);
  HT_RETURN_IF_ERROR(WriteFull(fd, hdr.data(), hdr.size(), deadline_s));
  if (!payload->empty()) {
    HT_RETURN_IF_ERROR(
        WriteFull(fd, payload->data(), payload->size(), deadline_s));
  }
  return Status::OK();
}

Status ReadFrame(int fd, Frame* f, double deadline_s, bool* dropped) {
  if (dropped != nullptr) *dropped = false;
  unsigned char hdr[kFrameHeaderBytes];
  HT_RETURN_IF_ERROR(ReadFull(fd, hdr, sizeof(hdr), deadline_s));
  FrameHeader h;
  HT_RETURN_IF_ERROR(DecodeFrameHeader(hdr, sizeof(hdr), &h));
  std::string payload(h.payload_len, '\0');
  if (h.payload_len > 0) {
    HT_RETURN_IF_ERROR(ReadFull(fd, payload.data(), payload.size(),
                                deadline_s));
  }

  bool injected_loss = false;
  switch (fault::Check(fault::Site::kNetRecv)) {
    case fault::Kind::kNone:
    case fault::Kind::kKill:
      break;
    case fault::Kind::kTransient:
    case fault::Kind::kDrop:
      // The frame was consumed off the stream but never happened from the
      // receiver's point of view; the stream stays framed.
      injected_loss = true;
      break;
    case fault::Kind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(fault::kDelayStallSeconds));
      break;
    case fault::Kind::kDisconnect:
      ::shutdown(fd, SHUT_RDWR);
      return Status::Unavailable("injected disconnect at net.recv");
    case fault::Kind::kPermanent:
      return Status::Internal("injected permanent fault at net.recv");
    case fault::Kind::kCorrupt:
      if (!payload.empty()) {
        payload[payload.size() / 3] =
            static_cast<char>(payload[payload.size() / 3] ^ 0x08);
      } else {
        h.payload_crc ^= 1u;
      }
      break;
  }

  f->type = static_cast<MsgType>(h.type);
  f->flags = h.flags;
  f->src_rank = static_cast<int>(h.src_rank);
  f->seq = h.seq;
  f->term = h.term;
  if (injected_loss) {
    if (dropped != nullptr) *dropped = true;
    f->payload.clear();
    return Status::OK();
  }
  if (Crc32c(payload.data(), payload.size()) != h.payload_crc) {
    // Header identity is intact (it passed its own CRC), so the caller can
    // answer with a typed error and keep the connection.
    f->payload.clear();
    return Status::DataLoss("frame payload CRC mismatch (type " +
                            std::string(MsgTypeName(f->type)) + ")");
  }
  f->payload = std::move(payload);
  return Status::OK();
}

}  // namespace net
}  // namespace hongtu
