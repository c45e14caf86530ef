#include "hongtu/net/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "hongtu/common/crc32c.h"
#include "hongtu/common/fault.h"
#include "hongtu/common/file.h"
#include "hongtu/common/wire.h"

namespace hongtu {
namespace net {

namespace {

constexpr uint32_t kJournalMagic = 0x4c4a5448u;  // "HTJL" little-endian
constexpr uint32_t kJournalVersion = 1;
constexpr size_t kRecordHeadBytes = 12;  // [u32 type][u64 len]

/// The file header: [u32 magic][u32 version].
void AppendHeader(WireWriter* w) {
  w->U32(kJournalMagic);
  w->U32(kJournalVersion);
}

/// One framed record: [type][len][payload][crc(type||len||payload)].
void FrameRecord(JournalRecordType type, const std::string& payload,
                 WireWriter* w) {
  const size_t start = w->buf().size();
  w->U32(static_cast<uint32_t>(type));
  w->Str(payload);
  w->U32(Crc32c(w->buf().data() + start, w->buf().size() - start));
}

}  // namespace

Result<std::unique_ptr<ClusterJournal>> ClusterJournal::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0 && errno == ENOENT) {
    // A fresh journal is installed whole, header included: a crash while
    // creating it leaves no file rather than a headerless one.
    WireWriter hdr;
    AppendHeader(&hdr);
    HT_RETURN_IF_ERROR(ReplaceFile(path, [&](int tfd) {
      return WriteAll(tfd, hdr.buf().data(), hdr.buf().size());
    }));
    fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  }
  if (fd < 0) {
    return Status::IoError("journal open '" + path +
                           "': " + std::strerror(errno));
  }
  return std::unique_ptr<ClusterJournal>(new ClusterJournal(path, fd));
}

ClusterJournal::~ClusterJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Status ClusterJournal::Append(JournalRecordType type,
                              const std::string& payload) {
  HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kJournalWrite));
  if (fd_ < 0) return Status::Internal("journal closed");
  WireWriter rec;
  FrameRecord(type, payload, &rec);
  HT_RETURN_IF_ERROR(WriteAll(fd_, rec.buf().data(), rec.buf().size()));
  return FsyncFd(fd_);
}

Status ClusterJournal::Compact(const std::vector<JournalRecord>& records) {
  WireWriter w;
  AppendHeader(&w);
  for (const JournalRecord& r : records) FrameRecord(r.type, r.payload, &w);
  HT_RETURN_IF_ERROR(ReplaceFile(path_, [&](int fd) {
    return WriteAll(fd, w.buf().data(), w.buf().size());
  }));
  // The old fd points at the unlinked inode; reopen the installed file.
  const int nfd = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (nfd < 0) {
    return Status::IoError("journal reopen '" + path_ +
                           "': " + std::strerror(errno));
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = nfd;
  return Status::OK();
}

Result<std::vector<JournalRecord>> ClusterJournal::Replay(
    const std::string& path) {
  Result<std::string> file = ReadFile(path);
  if (file.status().IsNotFound()) return std::vector<JournalRecord>{};
  HT_ASSIGN_OR_RETURN(const std::string image, std::move(file));
  WireReader r(image);
  const Result<uint32_t> magic = r.U32();
  const Result<uint32_t> version = r.U32();
  if (!version.ok() || magic.ValueOrDie() != kJournalMagic) {
    return Status::DataLoss("journal '" + path + "': bad header");
  }
  if (version.ValueOrDie() != kJournalVersion) {
    return Status::DataLoss("journal '" + path + "': unsupported version");
  }

  std::vector<JournalRecord> out;
  while (r.remaining() > 0) {
    // Any structural damage from here on is a torn tail: the durable prefix
    // is what a crashed append left behind, so stop without error.
    const Result<const unsigned char*> head = r.View(kRecordHeadBytes);
    if (!head.ok()) break;
    WireReader h(head.ValueOrDie(), kRecordHeadBytes);
    const uint32_t type = h.U32().ValueOrDie();
    const uint64_t len = h.U64().ValueOrDie();
    const Result<const unsigned char*> payload = r.View(len);
    const Result<uint32_t> want = r.U32();
    if (!payload.ok() || !want.ok() ||
        Crc32c(payload.ValueOrDie(), len,
               Crc32c(head.ValueOrDie(), kRecordHeadBytes)) !=
            want.ValueOrDie()) {
      break;
    }
    JournalRecord rec;
    rec.type = static_cast<JournalRecordType>(type);
    rec.payload.assign(reinterpret_cast<const char*>(payload.ValueOrDie()),
                       static_cast<size_t>(len));
    out.push_back(std::move(rec));
  }
  return out;
}

Result<JournalState> BuildJournalState(
    const std::vector<JournalRecord>& recs) {
  JournalState js;
  for (const JournalRecord& r : recs) {
    WireReader rd(r.payload);
    switch (r.type) {
      case JournalRecordType::kTerm: {
        HT_ASSIGN_OR_RETURN(const uint64_t t, rd.U64());
        js.term = std::max(js.term, t);
        break;
      }
      case JournalRecordType::kMember: {
        HT_ASSIGN_OR_RETURN(const uint32_t rank, rd.U32());
        JournalState::Member m;
        HT_ASSIGN_OR_RETURN(m.addr, rd.Str());
        HT_ASSIGN_OR_RETURN(m.pid, rd.U64());
        js.members[static_cast<int>(rank)] = m;  // re-registration: last wins
        break;
      }
      case JournalRecordType::kMemberDead: {
        HT_ASSIGN_OR_RETURN(const uint32_t rank, rd.U32());
        auto it = js.members.find(static_cast<int>(rank));
        if (it != js.members.end()) it->second.dead = true;
        break;
      }
      case JournalRecordType::kRunStart: {
        HT_ASSIGN_OR_RETURN(const uint64_t run, rd.U64());
        HT_ASSIGN_OR_RETURN(const uint64_t epoch, rd.U64());
        HT_ASSIGN_OR_RETURN(const uint32_t eval, rd.U32());
        js.run = run;
        js.run_epoch = static_cast<int64_t>(epoch);
        js.run_eval = eval != 0;
        js.reports.clear();
        js.max_run = std::max(js.max_run, run);
        break;
      }
      case JournalRecordType::kDoneReport: {
        HT_ASSIGN_OR_RETURN(const uint64_t run, rd.U64());
        HT_ASSIGN_OR_RETURN(const uint32_t rank, rd.U32());
        HT_ASSIGN_OR_RETURN(std::string raw, rd.Str());
        js.max_run = std::max(js.max_run, run);
        if (run == js.run) {
          // Duplicate report (coordinator died between fsync and ack, then
          // the worker resent): first writer wins, matching the in-memory
          // `received` dedup guard.
          js.reports.emplace(static_cast<int>(rank), std::move(raw));
        }
        break;
      }
      case JournalRecordType::kApplied: {
        HT_ASSIGN_OR_RETURN(const uint64_t applied, rd.U64());
        HT_ASSIGN_OR_RETURN(js.ckpt_path, rd.Str());
        js.epochs_applied = static_cast<int64_t>(applied);
        // The in-flight run (if it was this epoch's) is settled.
        if (js.run != 0 && js.run_epoch >= 0 &&
            js.run_epoch < js.epochs_applied) {
          js.run = 0;
          js.run_epoch = -1;
          js.reports.clear();
        }
        break;
      }
      default:
        return Status::DataLoss("journal: unknown record type " +
                                std::to_string(static_cast<uint32_t>(r.type)));
    }
  }
  return js;
}

}  // namespace net
}  // namespace hongtu
