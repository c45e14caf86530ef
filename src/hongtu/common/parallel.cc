#include "hongtu/common/parallel.h"

#include <atomic>
#include <exception>
#include <string>

namespace hongtu {

namespace {

/// The process-wide budget, read by every thread. Starts at the OpenMP
/// default, which every thread sees the same (OMP_NUM_THREADS).
std::atomic<int>& ProcessBudget() {
  static std::atomic<int> budget{omp_get_max_threads()};
  return budget;
}

/// The calling thread's share while it runs a WorkerGroup task; 0 otherwise.
thread_local int t_budget = 0;

/// Runs `task(index)` with the calling thread's budget set to `budget`. An
/// exception becomes the task's Status: it must not escape a worker thread.
Status RunWithBudget(const WorkerGroup::Task& task, int index, int budget) {
  const int saved = t_budget;
  t_budget = budget;
  Status st;
  try {
    st = task(index);
  } catch (const std::exception& e) {
    st = Status::Internal("worker task " + std::to_string(index) +
                          " threw: " + e.what());
  }
  t_budget = saved;
  return st;
}

}  // namespace

int NumThreads() {
  return t_budget > 0 ? t_budget
                      : ProcessBudget().load(std::memory_order_relaxed);
}

void SetNumThreads(int n) {
  ProcessBudget().store(std::max(1, n), std::memory_order_relaxed);
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn) {
  if (end - begin < kParallelSerialThreshold) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
#pragma omp parallel for schedule(dynamic, 64) num_threads(NumThreads())
  for (int64_t i = begin; i < end; ++i) fn(i);
}

WorkerGroup::WorkerGroup(int size)
    : size_(std::max(1, size)), status_(static_cast<size_t>(size_)) {
  workers_.reserve(static_cast<size_t>(size_ - 1));
  for (int i = 1; i < size_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkerGroup::~WorkerGroup() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

Status WorkerGroup::Run(const Task& task) {
  const int budget = std::max(1, NumThreads() / size_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    budget_ = budget;
    pending_ = size_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();
  status_[0] = RunWithBudget(task, 0, budget);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  task_ = nullptr;
  for (const Status& st : status_) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void WorkerGroup::WorkerLoop(int index) {
  uint64_t seen = 0;
  for (;;) {
    const Task* task = nullptr;
    int budget = 1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      task = task_;
      budget = budget_;
    }
    Status st = RunWithBudget(*task, index, budget);
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      status_[static_cast<size_t>(index)] = std::move(st);
      last = --pending_ == 0;
    }
    if (last) done_cv_.notify_one();
  }
}

}  // namespace hongtu
