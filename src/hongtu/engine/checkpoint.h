/// \file checkpoint.h
/// \brief Epoch-granular training checkpoints with integrity-checked
/// sections and crash-atomic installation.
///
/// A full-graph epoch over a billion-edge graph is minutes to hours of
/// work; the paper's out-of-core design makes multi-hour runs the normal
/// case, so losing a run to a crash is the single most expensive failure
/// mode. The complete inter-epoch training state of every engine here is
/// tiny — the replicated model parameters plus the Adam moments and step
/// counter (all activations h^l are recomputed from scratch each epoch) —
/// so a snapshot per epoch costs microseconds against an epoch of seconds.
///
/// ## File format (`HTCK`, version 1, little-endian)
///
///     [magic "HTCK"][u32 version]
///     repeated sections:
///       [u32 tag][u64 payload_bytes][payload][u32 crc32c(payload)]
///     [tag "ENDS"][u64 0][u32 crc32c(empty)]
///
/// Sections: `META` (epoch counter, Adam step count, parameter count),
/// then per parameter slot `PARM`/`ADM1`/`ADM2` (shape + raw fp32 rows for
/// the parameter and its two Adam moments). Every payload carries its own
/// CRC32C; a missing `ENDS` footer means the writer died mid-file. Readers
/// reject a snapshot on the first bad magic, short read, oversized length,
/// CRC mismatch, or shape that does not match the live model.
///
/// ## Crash atomicity
///
/// Save writes to `<path>.tmp`, fsyncs, then renames over `<path>` (and
/// fsyncs the directory), so a SIGKILL at any instant leaves either the old
/// snapshot or the new one — never a half-written primary. The manager
/// additionally rotates the previous good snapshot to `ckpt.prev.htck`
/// before installing, and Restore falls back to it (counting a
/// DegradeEvent::kCheckpointFallback) when the primary is damaged.
///
/// Fault site `ckpt.write` pokes once per section write, so injected
/// faults (including `kill` — the CI crash smoke) land at deterministic
/// byte offsets. Fault site `ckpt.read` pokes once per snapshot parse
/// (after the file was read, before validation), so restore-time
/// corruption and transient IO exercise the previous-snapshot fallback.

#pragma once

#include <cstdint>
#include <string>

#include "hongtu/common/fault.h"
#include "hongtu/common/status.h"
#include "hongtu/gnn/model.h"
#include "hongtu/tensor/adam.h"

namespace hongtu {

/// Writes one crash-atomic snapshot of (model params, adam moments, adam
/// step count, `epoch`) to `path`. `epoch` is the number of completed
/// epochs (i.e. the epoch index training should resume at).
Status SaveCheckpoint(const std::string& path, GnnModel* model,
                      const Adam& adam, int64_t epoch);

/// Restores a snapshot written by SaveCheckpoint into the live model and
/// optimizer. Fails (without touching any state) on any integrity or shape
/// violation; on success `*epoch` receives the stored epoch counter.
Status RestoreCheckpoint(const std::string& path, GnnModel* model, Adam* adam,
                         int64_t* epoch);

/// Primary/previous rotation over a checkpoint directory:
///   Save:    rotate ckpt.htck -> ckpt.prev.htck, install the new snapshot
///   Restore: primary first; fall back to previous when the primary is
///            missing or damaged (recording kCheckpointFallback).
class CheckpointManager {
 public:
  /// `dir` must exist. `degrade` (may be null) counts fallback events.
  explicit CheckpointManager(std::string dir,
                             fault::DegradationPolicy* degrade = nullptr)
      : dir_(std::move(dir)), degrade_(degrade) {}

  std::string PrimaryPath() const { return dir_ + "/ckpt.htck"; }
  std::string PreviousPath() const { return dir_ + "/ckpt.prev.htck"; }

  Status Save(GnnModel* model, const Adam& adam, int64_t epoch);

  /// Restores the newest intact snapshot, returning its epoch counter.
  /// NotFound when neither primary nor previous is usable.
  Result<int64_t> Restore(GnnModel* model, Adam* adam);

 private:
  std::string dir_;
  fault::DegradationPolicy* degrade_;
};

}  // namespace hongtu
