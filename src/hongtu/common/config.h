/// \file config.h
/// \brief Process-wide runtime configuration: the single parse point for
/// every `HONGTU_*` environment knob and the home of the pipeline depth.
///
/// Before this header existed the knobs were parsed ad hoc in five places
/// (kernels/backend.cc, kernels/codec.cc, tensor/pool.cc, common/fault.cc,
/// engine/engine.h), each with its own caching rules. They now all route
/// through `RuntimeConfig`, with one documented precedence:
///
///   explicit field assignment  >  environment variable  >  built-in default
///
/// "Explicit assignment" means writing the field on an options struct (e.g.
/// `EngineOptions::comm_precision`) after construction, or calling a setter
/// such as `kernels::SetBackend`. Defaults are captured from the environment
/// at the point the options object is constructed (`RuntimeConfig::FromEnv`),
/// so a test that `setenv`s and then builds options sees the new value, while
/// an already-built options struct is never mutated behind the caller's back.
///
/// | field           | env var                | default    |
/// |-----------------|------------------------|------------|
/// | kernel_backend  | HONGTU_KERNEL_BACKEND  | blocked    |
/// | comm_precision  | HONGTU_COMM_PRECISION  | fp32       |
/// | wire_integrity  | HONGTU_WIRE_INTEGRITY  | on (1)     |
/// | pool_enabled    | HONGTU_DISABLE_POOL    | on         |
/// | fault_spec      | HONGTU_FAULT_SPEC      | (disarmed) |
/// | retry_spec      | HONGTU_RETRY_SPEC      | (defaults) |
/// | max_inflight    | HONGTU_MAX_INFLIGHT    | 2          |
/// | cluster         | HONGTU_CLUSTER         | (off)      |
///
/// Parsing is strict: the two booleans accept exactly `0` or `1`, and
/// HONGTU_MAX_INFLIGHT a whole positive decimal integer (ParsePositiveInt).
/// Any other value (including an unknown enum name) logs a warning and
/// keeps the default.

#pragma once

#include <string>

#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/codec.h"

namespace hongtu {

/// Parses a whole positive decimal integer that fits an int ("3"; not "3x",
/// "0", "-2", "2.5" or ""). Returns false (and leaves *out untouched) on
/// anything else.
bool ParsePositiveInt(const char* s, int* out);

/// One snapshot of every runtime knob. Options structs embed these fields as
/// thin views (their defaults are `RuntimeConfig::FromEnv()` values), so the
/// precedence above holds everywhere without each subsystem re-reading the
/// environment.
struct RuntimeConfig {
  kernels::Backend kernel_backend = kernels::Backend::kBlocked;
  kernels::CommPrecision comm_precision = kernels::CommPrecision::kFp32;
  bool wire_integrity = true;
  bool pool_enabled = true;
  /// Raw HONGTU_FAULT_SPEC string; common/fault.cc owns the grammar and the
  /// arming (it validates and aborts loudly on a malformed spec).
  std::string fault_spec;
  /// Raw HONGTU_RETRY_SPEC string (attempts:base:max:deadline:jitter_seed);
  /// common/fault.cc owns the grammar (fault::ParseRetrySpec) and the
  /// process-wide capture (fault::DefaultRetryPolicy).
  std::string retry_spec;
  /// Window depth of the stage pipeline: how many chunk batches may be in
  /// flight at once. 1 runs the batches strictly in order with no overlap
  /// (the in-order numerics oracle); every depth gives bitwise the same
  /// weights. Each in-flight batch holds one buffer slot per device (comm
  /// transition buffers + compute workspace), so this is also the memory
  /// knob.
  int max_inflight = 2;
  /// Real multi-process cluster transport for CpuClusterEngine: "" (off,
  /// the analytic model), "tcp" (loopback TCP) or "uds" (Unix-domain
  /// sockets). When set, `Engine::Create(kCpuCluster, ...)` spawns one
  /// worker process per simulated device and RunEpoch measures real
  /// wall-clock over the net/ transport (see net/cluster.h).
  std::string cluster_transport;

  /// Built-in defaults, environment ignored.
  static RuntimeConfig Defaults();
  /// Defaults overridden by whatever HONGTU_* variables are set right now
  /// (re-reads the environment on every call — no caching).
  static RuntimeConfig FromEnv();
  /// The process-wide snapshot, captured once on first use. Subsystems whose
  /// configuration must not change mid-run (kernel backend dispatch) read
  /// this one.
  static const RuntimeConfig& Process();

  /// Human-readable multi-line dump, printed by benches and hongtu_cli so
  /// every report records the knob state it ran under.
  std::string Describe() const;
};

}  // namespace hongtu
