// Unit tests for hongtu/common: Status/Result, logging, RNG, parallel
// helpers, formatting, and the runtime-config knobs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hongtu/common/config.h"
#include "hongtu/common/format.h"
#include "hongtu/common/logging.h"
#include "hongtu/common/parallel.h"
#include "hongtu/common/random.h"
#include "hongtu/common/status.h"

namespace hongtu {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::OutOfMemory("device 2 full");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
  EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(st.message(), "device 2 full");
  EXPECT_EQ(st.ToString(), "OutOfMemory: device 2 full");
}

TEST(Status, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(Status, CopySharesState) {
  Status a = Status::Invalid("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
  EXPECT_TRUE(a == b);
}

TEST(Status, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfMemory), "OutOfMemory");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::Invalid("negative");
  return Status::OK();
}

Status UseReturnIfError(int x) {
  HT_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusMacros, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UseReturnIfError(1).ok());
  EXPECT_TRUE(UseReturnIfError(-1).IsInvalid());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  HT_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusMacros, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_TRUE(UseAssignOrReturn(3, &out).IsInvalid());
}

TEST(ResultT, HoldsValue) {
  Result<std::string> r(std::string("hello"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), "hello");
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultT, HoldsError) {
  Result<std::string> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultT, MoveValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  auto p = r.MoveValueUnsafe();
  EXPECT_EQ(*p, 7);
}

TEST(Logging, LevelFilterRoundTrips) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  HT_LOG(INFO) << "should be suppressed";
  SetLogLevel(prev);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextIntInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextInt(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(5000);
  ParallelFor(0, 5000, [&](int64_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunkedCoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(5000);
  ParallelForChunked(0, 5000, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, HelpersInsideParallelRegionCoverEveryIndexOnce) {
  // Called from inside an enclosing parallel region, a helper's own region
  // gets a one-thread team (nested parallelism is off). It must slice the
  // range by that team, not by NumThreads(), or only slice 0 runs.
  constexpr int64_t kN = 5000;
  constexpr int kOuter = 2;
  std::vector<int64_t> prefix(kN + 1, 0);
  for (int64_t i = 0; i < kN; ++i) prefix[i + 1] = prefix[i] + 1 + i % 7;
  const int saved = NumThreads();
  for (int t = 1; t <= 8; ++t) {
    SetNumThreads(t);
    std::vector<std::atomic<int>> chunked(kOuter * kN);
    std::vector<std::atomic<int>> balanced(kOuter * kN);
    int team = 0;
#pragma omp parallel num_threads(kOuter)
    {
      const int o = omp_get_thread_num();
#pragma omp single
      team = omp_get_num_threads();
      ParallelForChunked(0, kN, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) chunked[o * kN + i].fetch_add(1);
      });
      ParallelForBalanced(kN, prefix.data(), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) balanced[o * kN + i].fetch_add(1);
      });
    }
    for (int64_t i = 0; i < team * kN; ++i) {
      ASSERT_EQ(chunked[i].load(), 1) << "threads=" << t << " item " << i;
      ASSERT_EQ(balanced[i].load(), 1) << "threads=" << t << " item " << i;
    }
  }
  SetNumThreads(saved);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  ParallelForChunked(5, 5, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SmallRangeRunsSerially) {
  std::vector<int> hits(10, 0);
  ParallelFor(0, 10, [&](int64_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ThreadBudgetReachesNewThreads) {
  // omp_set_num_threads only sets the calling thread's value, and a new
  // std::thread starts from OMP_NUM_THREADS. The budget must reach the stage
  // lanes and device workers all the same.
  const int saved = NumThreads();
  SetNumThreads(3);
  int seen = 0;
  std::thread([&] { seen = NumThreads(); }).join();
  EXPECT_EQ(seen, 3);
  SetNumThreads(saved);
}

TEST(WorkerGroup, RunsEveryIndexOnceWithItsShareOfTheBudget) {
  const int saved = NumThreads();
  SetNumThreads(8);
  WorkerGroup group(3);
  for (int run = 0; run < 4; ++run) {
    std::vector<std::atomic<int>> hits(3);
    std::vector<int> budget(3, 0);
    const Status st = group.Run([&](int i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
      budget[static_cast<size_t>(i)] = NumThreads();
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
      EXPECT_EQ(budget[static_cast<size_t>(i)], 8 / 3) << "index " << i;
    }
    // The caller runs index 0 and gets its whole budget back afterwards.
    EXPECT_EQ(NumThreads(), 8);
  }
  SetNumThreads(saved);
}

TEST(WorkerGroup, ReturnsTheFirstErrorInIndexOrder) {
  WorkerGroup group(4);
  const Status st = group.Run([](int i) {
    return i >= 2 ? Status::Invalid("index " + std::to_string(i))
                  : Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("index 2"), std::string::npos) << st.ToString();
  // The group stays usable after a failed run.
  EXPECT_TRUE(group.Run([](int) { return Status::OK(); }).ok());
}

TEST(Format, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512.0B");
  EXPECT_EQ(FormatBytes(1536), "1.5KB");
  EXPECT_EQ(FormatBytes(12.0 * (1ll << 30)), "12.0GB");
}

TEST(Format, Count) {
  EXPECT_EQ(FormatCount(950), "950");
  EXPECT_EQ(FormatCount(1234567), "1.23M");
  EXPECT_EQ(FormatCount(2.5e9), "2.50B");
}

TEST(Format, Seconds) {
  EXPECT_EQ(FormatSeconds(0.123), "123.0ms");
  EXPECT_EQ(FormatSeconds(0.0005), "500us");
  EXPECT_EQ(FormatSeconds(4.5), "4.50s");
  EXPECT_EQ(FormatSeconds(125), "2m05s");
}

TEST(Format, FixedPoint) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(10.0, 0), "10");
}

/// RuntimeConfig::FromEnv() with `name` set to `value`, capturing what it
/// logs into *err; the variable's previous state is restored afterwards.
RuntimeConfig FromEnvWith(const char* name, const char* value,
                          std::string* err) {
  const char* prev = std::getenv(name);
  const std::string saved = prev != nullptr ? prev : "";
  setenv(name, value, 1);
  testing::internal::CaptureStderr();
  const RuntimeConfig c = RuntimeConfig::FromEnv();
  *err = testing::internal::GetCapturedStderr();
  if (prev != nullptr) {
    setenv(name, saved.c_str(), 1);
  } else {
    unsetenv(name);
  }
  return c;
}

TEST(RuntimeConfig, BooleanEnvAcceptsExactlyZeroOrOne) {
  const RuntimeConfig def = RuntimeConfig::Defaults();
  ASSERT_TRUE(def.wire_integrity);
  ASSERT_TRUE(def.pool_enabled);
  std::string err;
  EXPECT_FALSE(FromEnvWith("HONGTU_WIRE_INTEGRITY", "0", &err).wire_integrity);
  EXPECT_EQ(err.find("not recognized"), std::string::npos) << err;
  EXPECT_TRUE(FromEnvWith("HONGTU_WIRE_INTEGRITY", "1", &err).wire_integrity);
  EXPECT_EQ(err.find("not recognized"), std::string::npos) << err;
  EXPECT_FALSE(FromEnvWith("HONGTU_DISABLE_POOL", "1", &err).pool_enabled);
  EXPECT_EQ(err.find("not recognized"), std::string::npos) << err;
  EXPECT_TRUE(FromEnvWith("HONGTU_DISABLE_POOL", "0", &err).pool_enabled);
  EXPECT_EQ(err.find("not recognized"), std::string::npos) << err;
  // Words, padded digits and empty strings are not booleans: they warn and
  // keep the default instead of being read by their first character.
  for (const char* bad : {"off", "false", "no", "00", " 1", ""}) {
    EXPECT_TRUE(
        FromEnvWith("HONGTU_WIRE_INTEGRITY", bad, &err).wire_integrity)
        << "'" << bad << "'";
    EXPECT_NE(err.find("HONGTU_WIRE_INTEGRITY=" + std::string(bad) +
                       " not recognized"),
              std::string::npos)
        << err;
  }
  for (const char* bad : {"false", "true", "yes", "2", ""}) {
    EXPECT_TRUE(FromEnvWith("HONGTU_DISABLE_POOL", bad, &err).pool_enabled)
        << "'" << bad << "'";
    EXPECT_NE(err.find("HONGTU_DISABLE_POOL=" + std::string(bad) +
                       " not recognized"),
              std::string::npos)
        << err;
  }
}

TEST(RuntimeConfig, MaxInflightEnvIsAWholePositiveInteger) {
  std::string err;
  EXPECT_EQ(FromEnvWith("HONGTU_MAX_INFLIGHT", "3", &err).max_inflight, 3);
  EXPECT_EQ(err.find("HONGTU_MAX_INFLIGHT"), std::string::npos) << err;
  const int def = RuntimeConfig::Defaults().max_inflight;
  for (const char* bad :
       {"3abc", "abc", "", "0", "-2", "2.5", "99999999999999999999"}) {
    EXPECT_EQ(FromEnvWith("HONGTU_MAX_INFLIGHT", bad, &err).max_inflight, def)
        << "'" << bad << "'";
    EXPECT_NE(err.find("HONGTU_MAX_INFLIGHT=" + std::string(bad) +
                       " not a positive integer"),
              std::string::npos)
        << err;
  }
}

}  // namespace
}  // namespace hongtu
