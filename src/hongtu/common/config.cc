#include "hongtu/common/config.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "hongtu/common/logging.h"

namespace hongtu {

namespace {

const char* Env(const char* name) { return std::getenv(name); }

/// Reads the boolean knob `name` into *out when it is exactly "0" or "1";
/// anything else warns and keeps *out.
void ParseBoolEnv(const char* name, bool* out) {
  const char* s = Env(name);
  if (s == nullptr) return;
  if (std::strcmp(s, "0") == 0 || std::strcmp(s, "1") == 0) {
    *out = s[0] == '1';
  } else {
    HT_LOG(WARNING) << name << "=" << s
                    << " not recognized (want 0|1); keeping " << (*out ? 1 : 0);
  }
}

}  // namespace

bool ParsePositiveInt(const char* s, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < 1 || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

RuntimeConfig RuntimeConfig::Defaults() { return RuntimeConfig(); }

RuntimeConfig RuntimeConfig::FromEnv() {
  RuntimeConfig c;
  if (const char* s = Env("HONGTU_KERNEL_BACKEND")) {
    if (std::strcmp(s, "reference") == 0) {
      c.kernel_backend = kernels::Backend::kReference;
    } else if (std::strcmp(s, "blocked") != 0) {
      HT_LOG(WARNING) << "HONGTU_KERNEL_BACKEND=" << s
                      << " not recognized (want blocked|reference); keeping "
                      << kernels::BackendName(c.kernel_backend);
    }
  }
  if (const char* s = Env("HONGTU_COMM_PRECISION")) {
    if (std::strcmp(s, "bf16") == 0) {
      c.comm_precision = kernels::CommPrecision::kBf16;
    } else if (std::strcmp(s, "fp16") == 0) {
      c.comm_precision = kernels::CommPrecision::kFp16;
    } else if (std::strcmp(s, "fp32") != 0) {
      HT_LOG(WARNING) << "HONGTU_COMM_PRECISION=" << s
                      << " not recognized (want fp32|bf16|fp16); keeping "
                      << kernels::CommPrecisionName(c.comm_precision);
    }
  }
  ParseBoolEnv("HONGTU_WIRE_INTEGRITY", &c.wire_integrity);
  bool disable_pool = !c.pool_enabled;
  ParseBoolEnv("HONGTU_DISABLE_POOL", &disable_pool);
  c.pool_enabled = !disable_pool;
  if (const char* s = Env("HONGTU_FAULT_SPEC")) c.fault_spec = s;
  if (const char* s = Env("HONGTU_RETRY_SPEC")) c.retry_spec = s;
  if (const char* s = Env("HONGTU_MAX_INFLIGHT")) {
    if (!ParsePositiveInt(s, &c.max_inflight)) {
      HT_LOG(WARNING) << "HONGTU_MAX_INFLIGHT=" << s
                      << " not a positive integer; keeping " << c.max_inflight;
    }
  }
  if (const char* s = Env("HONGTU_CLUSTER")) {
    if (std::strcmp(s, "tcp") == 0 || std::strcmp(s, "uds") == 0) {
      c.cluster_transport = s;
    } else if (s[0] != '\0') {
      HT_LOG(WARNING) << "HONGTU_CLUSTER=" << s
                      << " not recognized (want tcp|uds|empty); keeping the "
                         "analytic cluster model";
    }
  }
  return c;
}

const RuntimeConfig& RuntimeConfig::Process() {
  static const RuntimeConfig snapshot = FromEnv();
  return snapshot;
}

std::string RuntimeConfig::Describe() const {
  std::ostringstream os;
  os << "RuntimeConfig (explicit > env > default):\n"
     << "  kernel_backend = " << kernels::BackendName(kernel_backend)
     << "  [HONGTU_KERNEL_BACKEND]\n"
     << "  comm_precision = " << kernels::CommPrecisionName(comm_precision)
     << "  [HONGTU_COMM_PRECISION]\n"
     << "  wire_integrity = " << (wire_integrity ? "on" : "off")
     << "  [HONGTU_WIRE_INTEGRITY]\n"
     << "  tensor_pool    = " << (pool_enabled ? "on" : "off")
     << "  [HONGTU_DISABLE_POOL]\n"
     << "  max_inflight   = " << max_inflight << "  [HONGTU_MAX_INFLIGHT]\n"
     << "  cluster        = "
     << (cluster_transport.empty() ? "(analytic)" : cluster_transport)
     << "  [HONGTU_CLUSTER]\n"
     << "  fault_spec     = " << (fault_spec.empty() ? "(disarmed)" : fault_spec)
     << "  [HONGTU_FAULT_SPEC]\n"
     << "  retry_spec     = " << (retry_spec.empty() ? "(defaults)" : retry_spec)
     << "  [HONGTU_RETRY_SPEC]";
  return os.str();
}

}  // namespace hongtu
