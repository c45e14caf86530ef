#include "hongtu/common/pipeline.h"

#include <algorithm>
#include <string>

#include "hongtu/common/fault.h"

namespace hongtu {

StagePipeline::StagePipeline(std::vector<StageFn> stages, int depth)
    : stages_(std::move(stages)), depth_(std::max(1, depth)) {
  done_.assign(stages_.size(), 0);
  workers_.reserve(stages_.size());
  for (int s = 0; s < static_cast<int>(stages_.size()); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

StagePipeline::~StagePipeline() {
  Flush();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

Status StagePipeline::Submit(int64_t item) {
  std::unique_lock<std::mutex> lock(mu_);
  // The in-flight window counts items not yet retired from the last stage;
  // blocking here is what makes `item % depth` slot reuse safe.
  cv_.wait(lock, [this] { return submitted_ - done_.back() < depth_; });
  items_.push_back(item);
  ++submitted_;
  cv_.notify_all();
  return error_;
}

Status StagePipeline::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_.back() == submitted_; });
  return error_;
}

void StagePipeline::WorkerLoop(int stage) {
  for (int64_t seq = 0;; ++seq) {
    int64_t item = 0;
    bool poisoned = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stopping_ ||
               (seq < submitted_ && (stage == 0 || done_[stage - 1] > seq));
      });
      const bool ready =
          seq < submitted_ && (stage == 0 || done_[stage - 1] > seq);
      if (!ready) return;  // stopping_ with no more work for this stage
      item = items_[static_cast<size_t>(seq)];
      poisoned = !error_.ok();
    }
    Status st =
        poisoned ? Status::OK() : fault::Poke(fault::Site::kPipelineStage);
    if (st.ok() && !poisoned) st = stages_[stage](item);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!st.ok() && error_.ok()) {
        // The sticky error keeps the cause's code (the engine's replay path
        // dispatches on it) and names the failing stage and item.
        error_ = Status(st.code(), "pipeline stage " + std::to_string(stage) +
                                       ", item " + std::to_string(item) +
                                       ": " + st.message());
      }
      done_[stage] = seq + 1;
    }
    cv_.notify_all();
  }
}

}  // namespace hongtu
