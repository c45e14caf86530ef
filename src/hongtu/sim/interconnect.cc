#include "hongtu/sim/interconnect.h"

#include <algorithm>

namespace hongtu {

namespace {
/// Lane binding for the calling thread; see SimPlatform::SetLane.
thread_local int t_lane = 0;
}  // namespace

TimeBreakdown& TimeBreakdown::operator+=(const TimeBreakdown& o) {
  gpu += o.gpu;
  h2d += o.h2d;
  d2d += o.d2d;
  cpu += o.cpu;
  ru += o.ru;
  overlapped += o.overlapped;
  return *this;
}

TimeBreakdown TimeBreakdown::Max(const TimeBreakdown& a,
                                 const TimeBreakdown& b) {
  TimeBreakdown r;
  r.gpu = std::max(a.gpu, b.gpu);
  r.h2d = std::max(a.h2d, b.h2d);
  r.d2d = std::max(a.d2d, b.d2d);
  r.cpu = std::max(a.cpu, b.cpu);
  r.ru = std::max(a.ru, b.ru);
  r.overlapped = std::max(a.overlapped, b.overlapped);
  return r;
}

ByteCounters& ByteCounters::operator+=(const ByteCounters& o) {
  h2d += o.h2d;
  d2d += o.d2d;
  ru += o.ru;
  cpu_accum += o.cpu_accum;
  return *this;
}

SimPlatform::SimPlatform(int num_devices, int64_t device_capacity_bytes,
                         InterconnectParams params)
    : params_(params) {
  devices_.reserve(static_cast<size_t>(num_devices));
  for (int i = 0; i < num_devices; ++i) {
    devices_.emplace_back(i, device_capacity_bytes);
  }
  lanes_.resize(1);
  lanes_[0].pending.resize(static_cast<size_t>(num_devices));
}

SimPlatform::Lane& SimPlatform::CurrentLaneLocked() {
  if (!overlap_active_) return lanes_[0];
  const int lane = std::min(std::max(t_lane, 0),
                            static_cast<int>(lanes_.size()) - 1);
  return lanes_[static_cast<size_t>(lane)];
}

TimeBreakdown SimPlatform::DrainPhaseLocked(Lane* lane) {
  TimeBreakdown phase;
  for (auto& p : lane->pending) {
    phase = TimeBreakdown::Max(phase, p);
    p = TimeBreakdown();
  }
  phase += lane->host_pending;
  lane->host_pending = TimeBreakdown();
  return phase;
}

void SimPlatform::AddH2D(int dev, int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLaneLocked().pending[dev].h2d +=
      static_cast<double>(bytes) / params_.t_hd + params_.xfer_latency_s;
  total_bytes_.h2d += bytes;
}

void SimPlatform::AddH2DRemote(int dev, int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLaneLocked().pending[dev].h2d +=
      static_cast<double>(bytes) / params_.t_hd_remote +
      params_.xfer_latency_s;
  total_bytes_.h2d += bytes;
}

void SimPlatform::AddD2D(int dev, int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLaneLocked().pending[dev].d2d +=
      static_cast<double>(bytes) / params_.t_dd + params_.xfer_latency_s;
  total_bytes_.d2d += bytes;
}

void SimPlatform::AddReuse(int dev, int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLaneLocked().pending[dev].ru +=
      static_cast<double>(bytes) / params_.t_ru;
  total_bytes_.ru += bytes;
}

void SimPlatform::AddGpuCompute(int dev, double flops, double bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLaneLocked().pending[dev].gpu +=
      std::max(flops / params_.gpu_flops, bytes / params_.gpu_mem_bw) +
      params_.kernel_launch_s;
}

void SimPlatform::AddCpuAccum(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLaneLocked().host_pending.cpu +=
      static_cast<double>(bytes) / params_.cpu_accum_bw;
  total_bytes_.cpu_accum += bytes;
}

void SimPlatform::AddCpuSeconds(double secs) {
  std::lock_guard<std::mutex> lock(mu_);
  CurrentLaneLocked().host_pending.cpu += secs;
}

void SimPlatform::Synchronize() {
  std::lock_guard<std::mutex> lock(mu_);
  Lane& lane = CurrentLaneLocked();
  const TimeBreakdown phase = DrainPhaseLocked(&lane);
  if (overlap_active_) {
    lane.total += phase;
  } else {
    total_time_ += phase;
  }
}

void SimPlatform::BeginOverlap(int num_lanes) {
  std::lock_guard<std::mutex> lock(mu_);
  // Whatever is pending on the serial lane belongs to the serial timeline.
  total_time_ += DrainPhaseLocked(&lanes_[0]);
  lanes_.assign(static_cast<size_t>(std::max(1, num_lanes)), Lane());
  for (auto& lane : lanes_) lane.pending.resize(devices_.size());
  overlap_active_ = true;
}

void SimPlatform::EndOverlap() { EndOverlap(0.0); }

void SimPlatform::EndOverlap(double modeled_wall_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  TimeBreakdown region;
  double critical_path = 0.0;
  double lane_sum = 0.0;
  for (auto& lane : lanes_) {
    lane.total += DrainPhaseLocked(&lane);
    region += lane.total;
    critical_path = std::max(critical_path, lane.total.total());
    lane_sum += lane.total.total();
  }
  // The modeled wall may extend the critical path (stage dependencies and
  // the depth window keep the bottleneck lane from running gap-free) but
  // never hide a lane's own busy time, nor exceed fully serial execution.
  critical_path =
      std::min(lane_sum, std::max(critical_path, modeled_wall_seconds));
  // Busy components add in full (the Fig. 9 stacks stay comparable across
  // executors); the seconds hidden behind the slowest lane move into
  // `overlapped` so total() stays the critical path.
  region.overlapped += region.total() - critical_path;
  total_time_ += region;
  lanes_.assign(1, Lane());
  lanes_[0].pending.resize(devices_.size());
  overlap_active_ = false;
}

void SimPlatform::SetLane(int lane) { t_lane = lane; }

double SimPlatform::LaneBusySeconds(int lane) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lane < 0 || lane >= static_cast<int>(lanes_.size())) return 0.0;
  Lane& l = lanes_[static_cast<size_t>(lane)];
  l.total += DrainPhaseLocked(&l);
  return l.total.total();
}

int64_t SimPlatform::MaxDevicePeak() const {
  int64_t m = 0;
  for (const auto& d : devices_) m = std::max(m, d.peak());
  return m;
}

int64_t SimPlatform::SumDevicePeaks() const {
  int64_t s = 0;
  for (const auto& d : devices_) s += d.peak();
  return s;
}

void SimPlatform::ResetEpoch() {
  Synchronize();
  TensorPool& pool = TensorPool::Global();
  pool.ResetPeak();
  std::lock_guard<std::mutex> lock(mu_);
  total_time_ = TimeBreakdown();
  total_bytes_ = ByteCounters();
  pool_epoch_base_ = pool.stats();
}

int64_t SimPlatform::HostAllocCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TensorPool::Global().stats().misses - pool_epoch_base_.misses;
}

int64_t SimPlatform::HostPoolHits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TensorPool::Global().stats().hits - pool_epoch_base_.hits;
}

int64_t SimPlatform::HostPeakBytes() const {
  return TensorPool::Global().stats().peak_live_bytes;
}

void SimPlatform::AddScheduleBytes(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_bytes_ += bytes;
}

int64_t SimPlatform::ScheduleBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schedule_bytes_;
}

void SimPlatform::ResetPeaks() {
  for (auto& d : devices_) d.ResetPeak();
}

}  // namespace hongtu
