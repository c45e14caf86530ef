/// \file journal.h
/// \brief Crash-atomic write-ahead journal of cluster control-plane
/// decisions, replayed by a restarted coordinator.
///
/// The coordinator journals every decision that must survive its own death:
/// the coordinator term (fencing word), cluster membership (rank, listen
/// address, pid), run starts, per-rank epoch-done reports (the raw report
/// payload, gradients included — fsynced *before* the worker's report is
/// acknowledged, so an acknowledged epoch contribution is never lost), and
/// the applied-epoch / checkpoint pointer after each optimizer step. A
/// restarted coordinator replays the journal to rebuild the run — adopting
/// the in-flight epoch and the still-running workers — without rerunning
/// any completed work.
///
/// On-disk format:
///
///     [u32 magic "HTJL"] [u32 version]
///     repeated: [u32 type] [u64 len] [payload len bytes] [u32 crc]
///
/// where crc is CRC32C over (type || len || payload): a torn length word is
/// caught just like torn payload bytes. Appends are write + fsync (a WAL
/// cannot rename per record); replay stops at the first short or
/// CRC-damaged record, treating everything before it as the durable prefix
/// — exactly the semantics of a crash mid-append. Compaction (after each
/// applied epoch) and creation install the file through ReplaceFile
/// (common/file.h): write temp, fsync, rename, fsync directory. Records are
/// framed and read with the WireWriter/WireReader cursor (common/wire.h).
///
/// Fault site `journal.write` pokes once per appended record, before any of
/// its bytes reach the file.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hongtu/common/status.h"

namespace hongtu {
namespace net {

/// Journal record vocabulary. Payloads are wire.h-encoded.
enum class JournalRecordType : uint32_t {
  kTerm = 1,      ///< {u64 term} — this coordinator incarnation's term
  kMember = 2,    ///< {u32 rank, str addr, u64 pid} — (re-)registration
  kMemberDead = 3,///< {u32 rank} — declared dead (respawn/adopt follows)
  kRunStart = 4,  ///< {u64 run, u64 epoch, u32 eval} — before broadcast
  kDoneReport = 5,///< {u64 run, u32 rank, bytes raw kEpochDone payload}
  kApplied = 6,   ///< {u64 epochs_completed, str ckpt_path} — after step+save
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kTerm;
  std::string payload;
};

/// Append handle over the journal file. Not thread-safe; the coordinator
/// serializes appends under its run lock.
class ClusterJournal {
 public:
  /// Opens `path` for appending, creating it (with a fresh header) when
  /// missing. An existing file is not validated here (Replay checks its
  /// header); damaged tails are tolerated (the next append writes after the
  /// last byte — the replayer ignores the torn region because every record
  /// is CRC-framed and read strictly in order until the first damage).
  static Result<std::unique_ptr<ClusterJournal>> Open(const std::string& path);

  /// Reads every intact record in order. Stops silently at the first torn
  /// or corrupt record (crash tail). A missing file yields an empty vector;
  /// a damaged header is kDataLoss (the caller falls back to the last
  /// checkpoint); a path that is not a regular file is kIoError.
  static Result<std::vector<JournalRecord>> Replay(const std::string& path);

  ~ClusterJournal();

  /// Appends one CRC32C-framed record and fsyncs. Pokes `journal.write`.
  Status Append(JournalRecordType type, const std::string& payload);

  /// Atomically replaces the journal with exactly `records` (temp + fsync +
  /// rename + directory fsync) and keeps appending to the new file.
  Status Compact(const std::vector<JournalRecord>& records);

  const std::string& path() const { return path_; }

 private:
  ClusterJournal(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
};

/// The control-plane state a journal replay reconstructs.
struct JournalState {
  uint64_t term = 0;  ///< highest journaled term
  struct Member {
    std::string addr;
    uint64_t pid = 0;
    bool dead = false;
  };
  std::map<int, Member> members;  ///< last registration per rank wins
  /// Last journaled run start (0 = none). `reports` holds the raw
  /// kEpochDone payloads received for it, keyed by rank.
  uint64_t run = 0;
  int64_t run_epoch = -1;
  bool run_eval = false;
  std::map<int, std::string> reports;
  /// Applied-epoch floor and the checkpoint holding it.
  int64_t epochs_applied = 0;
  std::string ckpt_path;
  /// Highest run id ever journaled — the restarted coordinator's run ids
  /// must start strictly above it (stale-run fencing at the workers).
  uint64_t max_run = 0;
};

/// Folds replayed records into a JournalState. Duplicate registrations and
/// reports are idempotent (last/first writer wins respectively); malformed
/// record payloads are kDataLoss.
Result<JournalState> BuildJournalState(const std::vector<JournalRecord>& recs);

}  // namespace net
}  // namespace hongtu
