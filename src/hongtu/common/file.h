/// \file file.h
/// \brief The file primitives every on-disk format shares: one whole-file
/// read, one write loop, one fsync, and one crash-atomic replace.
///
/// The HTCK checkpoint (engine/checkpoint.h), the cluster journal
/// (net/journal.h) and the HTDS dataset file (graph/io.h) read their whole
/// file with `ReadFile` and decode it with the WireReader cursor
/// (common/wire.h). The checkpoint and journal compaction install new files
/// through `ReplaceFile`, so a crash at any instant leaves either the old
/// file or the new one, never a half-written one.

#pragma once

#include <functional>
#include <string>

#include "hongtu/common/status.h"

namespace hongtu {

/// Reads the whole file at `path`, sized by fstat. `kNotFound` when the
/// path does not exist; `kIoError` when it is not a regular file (a
/// directory, say) or the read fails.
Result<std::string> ReadFile(const std::string& path);

/// Writes all `n` bytes to `fd`, looping over partial writes and EINTR.
Status WriteAll(int fd, const void* data, size_t n);

/// fsync(2) on an open descriptor.
Status FsyncFd(int fd);

/// Crash-atomically replaces `path`: `write(fd)` fills `<path>.tmp`, which
/// is fsynced, renamed over `path`, and made durable by a directory fsync.
/// On failure the temp file is removed and `path` is left as it was (a
/// failed directory fsync leaves the new file installed but not durable).
Status ReplaceFile(const std::string& path,
                   const std::function<Status(int fd)>& write);

}  // namespace hongtu
