/// \file simd.h
/// \brief A 16-float vector type for the register-resident kernels.
///
/// V16 is one AVX-512 register. It is a GCC/Clang vector extension, not an
/// intrinsic type, so the same code lowers to two AVX2 or four SSE registers
/// on narrower targets. No helper passes or returns a V16 by value: that
/// ABI depends on the target's vector width, and GCC warns (-Wpsabi) when
/// it is built without AVX-512.

#pragma once

#include <cstdint>
#include <cstring>

namespace hongtu {
namespace kernels {

typedef float V16 __attribute__((vector_size(64)));

/// Floats per V16.
inline constexpr int kV = 16;

/// v = the 16 floats at p (unaligned).
inline void LoadV(V16& v, const float* p) { std::memcpy(&v, p, sizeof(v)); }

/// The 16 floats at p (unaligned) = v.
inline void StoreV(float* p, const V16& v) { std::memcpy(p, &v, sizeof(v)); }

/// y[i] = x[i] > 0 ? d[i] : 0 for i in [0, n): the ReLU mask as a lane
/// select. Both operands are loaded unconditionally, so the loop has no
/// per-element branch; NaN and ±0 in x select +0. y may alias x or d.
inline void ReluSelect(const float* x, const float* d, float* y, int64_t n) {
  int64_t i = 0;
  for (V16 xv, dv; i + kV <= n; i += kV) {
    LoadV(xv, x + i);
    LoadV(dv, d + i);
    StoreV(y + i, xv > 0.0f ? dv : V16{});
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? d[i] : 0.0f;
}

}  // namespace kernels
}  // namespace hongtu
