#include "hongtu/kernels/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hongtu/common/parallel.h"
#include "hongtu/kernels/simd.h"
#include "hongtu/tensor/pool.h"

namespace hongtu {
namespace kernels {
namespace {

// Micro-tile shape: the innermost kernel keeps a (kMr x kNr) float
// accumulator block in registers across the whole depth loop. kNr is one
// AVX-512 register of floats (two AVX2 registers); kMr x kNr = 8..16 vector
// registers of accumulators, leaving room for the B row and A broadcasts.
constexpr int kMr = 8;
constexpr int kNr = 16;

// Cache blocking: the packed B block (kKc x kNc floats = 256 KB) and the A
// row panel a micro-tile streams (kMr x kKc = 8 KB) stay L2-resident.
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 256;

// Below this flop count the packing + tiling overhead dominates; fall back
// to the reference loops.
constexpr int64_t kSmallGemmFlops = 16 * 1024;

inline float Activate(float v, Epilogue ep) {
  switch (ep) {
    case Epilogue::kNone:
    case Epilogue::kBias:
      return v;
    case Epilogue::kBiasRelu:
      return v > 0.0f ? v : 0.0f;
    case Epilogue::kBiasSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case Epilogue::kBiasTanh:
      return std::tanh(v);
  }
  return v;
}

// ---- Reference backend: the seed's scalar loops, extended with the fused
// epilogue so both backends expose identical semantics. -----------------------

void ReferenceGemm(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, bool accumulate, const float* bias,
                   Epilogue ep) {
  ParallelForChunked(0, m, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* pa = a + i * k;
      float* pc = c + i * n;
      if (!accumulate) {
        std::memset(pc, 0, static_cast<size_t>(n) * sizeof(float));
      }
      for (int64_t p = 0; p < k; ++p) {
        const float av = pa[p];
        if (av == 0.0f) continue;
        const float* pbrow = b + p * n;
        for (int64_t j = 0; j < n; ++j) pc[j] += av * pbrow[j];
      }
      if (ep != Epilogue::kNone) {
        for (int64_t j = 0; j < n; ++j) pc[j] = Activate(pc[j] + bias[j], ep);
      }
    }
  });
}

void ReferenceGemmTransAAccum(const float* a, const float* b, float* c,
                              int64_t k, int64_t m, int64_t n) {
  ParallelForChunked(0, m, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* pc = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = a[p * m + i];
        if (av == 0.0f) continue;
        const float* pbrow = b + p * n;
        for (int64_t j = 0; j < n; ++j) pc[j] += av * pbrow[j];
      }
    }
  });
}

void ReferenceGemmTransB(const float* a, const float* b, float* c, int64_t m,
                         int64_t k, int64_t n, bool accumulate) {
  ParallelForChunked(0, m, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* pa = a + i * k;
      float* pc = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* pbrow = b + j * k;
        float s = 0.0f;
        for (int64_t p = 0; p < k; ++p) s += pa[p] * pbrow[p];
        pc[j] = accumulate ? pc[j] + s : s;
      }
    }
  });
}

// ---- Blocked backend. -------------------------------------------------------

/// Packs the (kc x nc) block of b starting at its top-left corner into
/// column panels of kNr: panel p holds kc rows of kNr contiguous floats,
/// zero-padded on the right so the micro-kernel always runs full width.
void PackB(const float* b, int64_t ldb, int64_t kc, int64_t nc, float* bp) {
  const int64_t npanels = (nc + kNr - 1) / kNr;
  for (int64_t panel = 0; panel < npanels; ++panel) {
    const int64_t j0 = panel * kNr;
    const int64_t w = std::min<int64_t>(kNr, nc - j0);
    float* dst = bp + panel * kc * kNr;
    for (int64_t p = 0; p < kc; ++p) {
      const float* srow = b + p * ldb + j0;
      float* drow = dst + p * kNr;
      for (int64_t j = 0; j < w; ++j) drow[j] = srow[j];
      for (int64_t j = w; j < kNr; ++j) drow[j] = 0.0f;
    }
  }
}

/// acc = A-tile (mr x kc, row stride lda) * packed-B panel (kc x kNr).
/// The full-height case is a separate constant-bound loop so the compiler
/// fully unrolls it and keeps `acc` in vector registers.
void MicroKernel(const float* a, int64_t lda, const float* bp, int64_t kc,
                 int mr, float acc[kMr][kNr]) {
  for (int r = 0; r < kMr; ++r) {
    for (int j = 0; j < kNr; ++j) acc[r][j] = 0.0f;
  }
  if (mr == kMr) {
    for (int64_t p = 0; p < kc; ++p) {
      const float* brow = bp + p * kNr;
      for (int r = 0; r < kMr; ++r) {
        const float av = a[r * lda + p];
#pragma omp simd
        for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
      }
    }
  } else {
    for (int64_t p = 0; p < kc; ++p) {
      const float* brow = bp + p * kNr;
      for (int r = 0; r < mr; ++r) {
        const float av = a[r * lda + p];
#pragma omp simd
        for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
      }
    }
  }
}

/// Adds the accumulator tile into c; on the final depth block also applies
/// the fused bias + activation epilogue. `overwrite` discards the previous
/// contents (first depth block of a non-accumulating GEMM).
void StoreTile(const float acc[kMr][kNr], float* c, int64_t ldc, int mr,
               int nr, bool overwrite, bool final_block, const float* bias,
               Epilogue ep) {
  for (int r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    if (!final_block || ep == Epilogue::kNone) {
      if (overwrite) {
        for (int j = 0; j < nr; ++j) crow[j] = acc[r][j];
      } else {
        for (int j = 0; j < nr; ++j) crow[j] += acc[r][j];
      }
    } else {
      for (int j = 0; j < nr; ++j) {
        const float v = (overwrite ? 0.0f : crow[j]) + acc[r][j] + bias[j];
        crow[j] = Activate(v, ep);
      }
    }
  }
}

// ---- Narrow-N path: GNN layer widths (n = 16..64, k <= kKc). ---------------
//
// With n at most four vectors wide, B (k x n, row-major) is small enough to
// stay in L1/L2 as it is, so there is no PackB. An R x NV block of vector
// accumulators stays in registers across the whole depth loop; R is chosen
// per width so R * NV fills most of the 32 AVX-512 registers while leaving
// room for the NV B vectors and the A broadcast. Every output element is
// still summed in depth order from zero and stored by StoreTile's rules, so
// the results are bitwise identical to the packed path.

/// True when the narrow path handles an n-wide output.
bool NarrowWidth(int64_t n) {
  return n == 16 || n == 32 || n == 48 || n == 64;
}

/// Accumulates an (R x NV*16) tile over kc depth steps and stores it into c
/// (row stride NV*16). A element (r, p) is a[r * ars + p * ads], so one
/// kernel serves both A (ars = lda, ads = 1) and A^T (ars = 1, ads = lda).
/// The store follows StoreTile for a single (final) depth block.
template <int R, int NV>
inline void NarrowTile(const float* a, int64_t ars, int64_t ads,
                       const float* b, int64_t kc, float* c, bool overwrite,
                       const float* bias, Epilogue ep) {
  constexpr int64_t n = NV * kV;
  V16 acc[R][NV] = {};
  for (int64_t p = 0; p < kc; ++p) {
    V16 bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) LoadV(bv[v], b + p * n + v * kV);
    const float* ap = a + p * ads;
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const float av = ap[r * ars];
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < NV; ++v) {
      float* cp = c + r * n + v * kV;
      V16 old = {};
      if (!overwrite) LoadV(old, cp);
      if (ep == Epilogue::kNone) {
        StoreV(cp, overwrite ? acc[r][v] : old + acc[r][v]);
        continue;
      }
      V16 bv;
      LoadV(bv, bias + v * kV);
      V16 x = old + acc[r][v] + bv;
      // Same lanes as Activate's `v > 0 ? v : 0`, including NaN -> 0.
      if (ep == Epilogue::kBiasRelu) x = x > 0.0f ? x : V16{};
      StoreV(cp, x);
      if (ep == Epilogue::kBiasSigmoid || ep == Epilogue::kBiasTanh) {
        for (int j = 0; j < kV; ++j) cp[j] = Activate(cp[j], ep);
      }
    }
  }
}

/// c (m x n) [+]= A (m x kc) * b (kc x n) over R-row tiles, threads
/// splitting the tiles; a leftover m % R rows run one row at a time.
template <int R, int NV>
void NarrowGemm(const float* a, int64_t ars, int64_t ads, const float* b,
                float* c, int64_t m, int64_t kc, bool overwrite,
                const float* bias, Epilogue ep) {
  constexpr int64_t n = NV * kV;
  const int64_t mtiles = (m + R - 1) / R;
  ParallelForChunked(0, mtiles, /*serial_below=*/256 / R,
                     [&](int64_t tlo, int64_t thi) {
    for (int64_t t = tlo; t < thi; ++t) {
      const int64_t i0 = t * R;
      if (i0 + R <= m) {
        NarrowTile<R, NV>(a + i0 * ars, ars, ads, b, kc, c + i0 * n,
                          overwrite, bias, ep);
        continue;
      }
      for (int64_t i = i0; i < m; ++i) {
        NarrowTile<1, NV>(a + i * ars, ars, ads, b, kc, c + i * n, overwrite,
                          bias, ep);
      }
    }
  });
}

/// Dispatches NarrowGemm on the width; n must satisfy NarrowWidth.
void NarrowGemmDispatch(const float* a, int64_t ars, int64_t ads,
                        const float* b, float* c, int64_t m, int64_t kc,
                        int64_t n, bool overwrite, const float* bias,
                        Epilogue ep) {
  switch (n) {
    case 16:
      return NarrowGemm<16, 1>(a, ars, ads, b, c, m, kc, overwrite, bias, ep);
    case 32:
      return NarrowGemm<12, 2>(a, ars, ads, b, c, m, kc, overwrite, bias, ep);
    case 48:
      return NarrowGemm<8, 3>(a, ars, ads, b, c, m, kc, overwrite, bias, ep);
    default:
      return NarrowGemm<6, 4>(a, ars, ads, b, c, m, kc, overwrite, bias, ep);
  }
}

void BlockedGemm(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n, bool accumulate, const float* bias,
                 Epilogue ep) {
  if (NarrowWidth(n) && k <= kKc) {
    NarrowGemmDispatch(a, /*ars=*/k, /*ads=*/1, b, c, m, k, n, !accumulate,
                       bias, ep);
    return;
  }
  // Pool-backed packing panel: GEMM runs once per chunk per layer, so a heap
  // allocation here would defeat the zero-allocation steady state.
  PoolBuffer bpack(static_cast<int64_t>(kKc) *
                   (((kNc + kNr - 1) / kNr) * kNr));
  const int64_t mtiles = (m + kMr - 1) / kMr;
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    const int64_t npanels = (nc + kNr - 1) / kNr;
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      PackB(b + pc * n + jc, n, kc, nc, bpack.data());
      const bool first = (pc == 0);
      const bool last = (pc + kc >= k);
      // Threads split the M dimension in contiguous micro-tile runs (the
      // effective Mc block); the packed B block is shared read-only. The
      // serial cutoff is in micro-tiles so it matches the default row
      // threshold (one tile = kMr rows).
      ParallelForChunked(0, mtiles, /*serial_below=*/256 / kMr,
                         [&](int64_t tlo, int64_t thi) {
        float acc[kMr][kNr];
        for (int64_t t = tlo; t < thi; ++t) {
          const int64_t i0 = t * kMr;
          const int mr = static_cast<int>(std::min<int64_t>(kMr, m - i0));
          const float* atile = a + i0 * k + pc;
          for (int64_t panel = 0; panel < npanels; ++panel) {
            const int64_t j0 = jc + panel * kNr;
            const int nr =
                static_cast<int>(std::min<int64_t>(kNr, jc + nc - j0));
            MicroKernel(atile, k, bpack.data() + panel * kc * kNr, kc, mr,
                        acc);
            StoreTile(acc, c + i0 * n + j0, n, mr, nr, first && !accumulate,
                      last, bias != nullptr ? bias + j0 : nullptr, ep);
          }
        }
      });
    }
  }
}

void BlockedGemmTransAAccum(const float* a, const float* b, float* c,
                            int64_t k, int64_t m, int64_t n) {
  // c[i][j] += sum_p a[p*m + i] * b[p*n + j]. Both operands are read
  // row-contiguously per depth step, so no packing is needed; the depth loop
  // is chunked so the streamed a/b blocks stay cache-resident while every
  // (kMr x kNr) output tile consumes them.
  constexpr int64_t kDepthBlock = 1024;
  const int64_t mtiles = (m + kMr - 1) / kMr;
  for (int64_t pc = 0; pc < k; pc += kDepthBlock) {
    const int64_t kc = std::min(kDepthBlock, k - pc);
    const float* ablk = a + pc * m;
    const float* bblk = b + pc * n;
    if (NarrowWidth(n)) {
      NarrowGemmDispatch(ablk, /*ars=*/1, /*ads=*/m, bblk, c, m, kc, n,
                         /*overwrite=*/false, nullptr, Epilogue::kNone);
      continue;
    }
    ParallelForChunked(0, mtiles, /*serial_below=*/256 / kMr,
                       [&](int64_t tlo, int64_t thi) {
      float acc[kMr][kNr];
      for (int64_t t = tlo; t < thi; ++t) {
        const int64_t i0 = t * kMr;
        const int mr = static_cast<int>(std::min<int64_t>(kMr, m - i0));
        for (int64_t j0 = 0; j0 < n; j0 += kNr) {
          const int nr = static_cast<int>(std::min<int64_t>(kNr, n - j0));
          for (int r = 0; r < kMr; ++r) {
            for (int j = 0; j < kNr; ++j) acc[r][j] = 0.0f;
          }
          if (mr == kMr && nr == kNr) {
            for (int64_t p = 0; p < kc; ++p) {
              const float* arow = ablk + p * m + i0;
              const float* brow = bblk + p * n + j0;
              for (int r = 0; r < kMr; ++r) {
                const float av = arow[r];
#pragma omp simd
                for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
              }
            }
          } else {
            for (int64_t p = 0; p < kc; ++p) {
              const float* arow = ablk + p * m + i0;
              const float* brow = bblk + p * n + j0;
              for (int r = 0; r < mr; ++r) {
                const float av = arow[r];
                for (int j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
              }
            }
          }
          for (int r = 0; r < mr; ++r) {
            float* crow = c + (i0 + r) * n + j0;
            for (int j = 0; j < nr; ++j) crow[j] += acc[r][j];
          }
        }
      }
    });
  }
}

void BlockedGemmTransB(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n, bool accumulate) {
  // b is an (n x k) weight matrix — small. Transposing it once into (k x n)
  // turns the whole call into a plain blocked GEMM with packed B.
  PoolBuffer bt(k * n);
  for (int64_t j = 0; j < n; ++j) {
    const float* brow = b + j * k;
    for (int64_t p = 0; p < k; ++p) bt.data()[p * n + j] = brow[p];
  }
  BlockedGemm(a, bt.data(), c, m, k, n, accumulate, nullptr, Epilogue::kNone);
}

}  // namespace

void Gemm(Backend backend, const float* a, const float* b, float* c,
          int64_t m, int64_t k, int64_t n, bool accumulate, const float* bias,
          Epilogue epilogue) {
  if (m <= 0 || n <= 0) return;
  if (backend == Backend::kReference || m * n * k < kSmallGemmFlops) {
    ReferenceGemm(a, b, c, m, k, n, accumulate, bias, epilogue);
    return;
  }
  BlockedGemm(a, b, c, m, k, n, accumulate, bias, epilogue);
}

void GemmTransAAccum(Backend backend, const float* a, const float* b,
                     float* c, int64_t k, int64_t m, int64_t n) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (backend == Backend::kReference || m * n * k < kSmallGemmFlops) {
    ReferenceGemmTransAAccum(a, b, c, k, m, n);
    return;
  }
  BlockedGemmTransAAccum(a, b, c, k, m, n);
}

void GemmTransB(Backend backend, const float* a, const float* b, float* c,
                int64_t m, int64_t k, int64_t n, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (backend == Backend::kReference || m * n * k < kSmallGemmFlops) {
    ReferenceGemmTransB(a, b, c, m, k, n, accumulate);
    return;
  }
  BlockedGemmTransB(a, b, c, m, k, n, accumulate);
}

void ColumnSumAccum(Backend backend, const float* x, int64_t rows,
                    int64_t cols, float* out) {
  if (rows <= 0 || cols <= 0) return;
  if (backend == Backend::kReference) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* px = x + r * cols;
      for (int64_t c = 0; c < cols; ++c) out[c] += px[c];
    }
    return;
  }
  // Threads own disjoint column blocks; each block is reduced in row order,
  // so the result is independent of the thread count.
  const int64_t nblocks = (cols + kNr - 1) / kNr;
  ParallelForChunked(0, nblocks, [&](int64_t blo, int64_t bhi) {
    for (int64_t blk = blo; blk < bhi; ++blk) {
      const int64_t c0 = blk * kNr;
      const int w = static_cast<int>(std::min<int64_t>(kNr, cols - c0));
      float acc[kNr] = {0.0f};
      if (w == kNr) {
        for (int64_t r = 0; r < rows; ++r) {
          const float* px = x + r * cols + c0;
#pragma omp simd
          for (int j = 0; j < kNr; ++j) acc[j] += px[j];
        }
      } else {
        for (int64_t r = 0; r < rows; ++r) {
          const float* px = x + r * cols + c0;
          for (int j = 0; j < w; ++j) acc[j] += px[j];
        }
      }
      for (int j = 0; j < w; ++j) out[c0 + j] += acc[j];
    }
  });
}

double Dot(Backend backend, const float* a, const float* b, int64_t n) {
  double s = 0.0;
  if (backend == Backend::kReference) {
    for (int64_t i = 0; i < n; ++i) {
      s += static_cast<double>(a[i]) * b[i];
    }
    return s;
  }
#pragma omp simd reduction(+ : s)
  for (int64_t i = 0; i < n; ++i) {
    s += static_cast<double>(a[i]) * b[i];
  }
  return s;
}

}  // namespace kernels
}  // namespace hongtu
