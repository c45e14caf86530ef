#include "hongtu/engine/engine.h"

#include <utility>

#include "hongtu/engine/cpu_cluster_engine.h"
#include "hongtu/engine/hongtu_engine.h"
#include "hongtu/engine/inmemory_engine.h"
#include "hongtu/engine/minibatch_engine.h"
#include "hongtu/kernels/backend.h"

namespace hongtu {

Engine::~Engine() = default;

const char* EngineKindName(EngineKind k) {
  switch (k) {
    case EngineKind::kHongTu:
      return "hongtu";
    case EngineKind::kInMemory:
      return "inmemory";
    case EngineKind::kMiniBatch:
      return "minibatch";
    case EngineKind::kCpuCluster:
      return "cpu-cluster";
  }
  return "?";
}

bool ParseEngineKind(const std::string& s, EngineKind* out) {
  if (s == "hongtu") {
    *out = EngineKind::kHongTu;
  } else if (s == "inmemory") {
    *out = EngineKind::kInMemory;
  } else if (s == "minibatch") {
    *out = EngineKind::kMiniBatch;
  } else if (s == "cpu-cluster" || s == "cpucluster") {
    *out = EngineKind::kCpuCluster;
  } else {
    return false;
  }
  return true;
}

RuntimeConfig EngineConfig::runtime() const {
  // Engine-scoped fields from this config; the process-scoped knobs from
  // their live owners.
  RuntimeConfig rc = RuntimeConfig::Process();
  rc.kernel_backend = kernels::ActiveBackend();
  rc.comm_precision = comm_precision;
  rc.wire_integrity = wire_integrity;
  rc.max_inflight = max_inflight;
  return rc;
}

Result<std::unique_ptr<Engine>> Engine::Create(EngineKind kind,
                                               const Dataset* dataset,
                                               ModelConfig model_config,
                                               const EngineConfig& config) {
  switch (kind) {
    case EngineKind::kHongTu: {
      HT_ASSIGN_OR_RETURN(auto e, HongTuEngine::Create(
                                      dataset, std::move(model_config),
                                      config));
      return {std::unique_ptr<Engine>(std::move(e))};
    }
    case EngineKind::kInMemory: {
      HT_ASSIGN_OR_RETURN(auto e, InMemoryEngine::Create(
                                      dataset, std::move(model_config),
                                      config));
      return {std::unique_ptr<Engine>(std::move(e))};
    }
    case EngineKind::kMiniBatch: {
      HT_ASSIGN_OR_RETURN(auto e, MiniBatchEngine::Create(
                                      dataset, std::move(model_config),
                                      config));
      return {std::unique_ptr<Engine>(std::move(e))};
    }
    case EngineKind::kCpuCluster: {
      HT_ASSIGN_OR_RETURN(auto e, CpuClusterEngine::Create(
                                      dataset, std::move(model_config),
                                      config));
      return {std::unique_ptr<Engine>(std::move(e))};
    }
  }
  return Status::Invalid("Engine::Create: unknown engine kind");
}

}  // namespace hongtu
