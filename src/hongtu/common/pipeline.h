/// \file pipeline.h
/// \brief Bounded-depth multi-stage task pipeline.
///
/// A StagePipeline runs S stages on S dedicated worker threads. Items are
/// submitted in order and flow through the stages strictly FIFO: stage s
/// starts item k only after stage s-1 has finished item k, and every stage
/// processes items in submission order. With S=3 this is the classic
/// software pipeline — while stage 1 computes item k, stage 0 is already
/// loading item k+1 and stage 2 is draining item k-1.
///
/// At most `depth` items are in flight at once (Submit blocks when the
/// window is full), so `depth` buffer slots indexed by `item % depth` are
/// safe: slot k%depth is only reused after item k has fully retired.
///
/// The engine layer runs every layer of Algorithm 1 through this: at depth 1
/// batches retire strictly in order, deeper windows overlap deduplicated
/// communication with GNN kernel compute (§6 of the paper). The class itself
/// is generic and engine-agnostic.

#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "hongtu/common/status.h"

namespace hongtu {

class StagePipeline {
 public:
  /// A stage body: receives the submitted item id. A non-OK return poisons
  /// the pipeline: remaining work is skipped (items still retire, so Flush
  /// never deadlocks) and the first error is reported by Submit/Flush, with
  /// its code kept and its message prefixed by the failing stage and item.
  using StageFn = std::function<Status(int64_t item)>;

  /// Spawns one worker per stage. `depth` >= 1 bounds in-flight items.
  StagePipeline(std::vector<StageFn> stages, int depth);

  /// Drains remaining work and joins the workers.
  ~StagePipeline();

  StagePipeline(const StagePipeline&) = delete;
  StagePipeline& operator=(const StagePipeline&) = delete;

  /// Enqueues `item` for stage 0. Blocks while `depth` items are in flight.
  /// Returns the sticky pipeline error so callers can stop submitting early;
  /// the item is accepted (as a no-op) even after an error.
  Status Submit(int64_t item);

  /// Waits until every submitted item has retired from the last stage.
  /// Returns the first stage error, or OK.
  Status Flush();

  int num_stages() const { return static_cast<int>(stages_.size()); }
  int depth() const { return depth_; }

 private:
  void WorkerLoop(int stage);

  std::vector<StageFn> stages_;
  int depth_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int64_t> items_;  ///< submitted item ids, indexed by sequence
  std::vector<int64_t> done_;   ///< per stage: count of retired sequences
  int64_t submitted_ = 0;
  bool stopping_ = false;
  Status error_;  ///< first stage error with context (sticky)

  std::vector<std::thread> workers_;
};

}  // namespace hongtu
