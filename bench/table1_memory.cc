// Reproduces Table 1: memory consumption of graph topology, vertex data and
// intermediate data for 3-layer full-graph GCN training on the three
// billion-scale graphs. Evaluated analytically at the PAPER's full-scale
// parameters (this is exactly how the table is computed: sizes, not runs).
//
// Paper reference values (GB): it-2004 12.8/177.2/108.3,
// ogbn-paper 18.0/519.4/425.3, friendster 28.9/293.3/179.3.
//
// A second, measured section exercises the arena-backed tensor pool
// (tensor/pool.h) on the Fig. 11 configuration (4 devices, default chunks,
// the pipeline at max_inflight 3) and A/Bs pooled vs unpooled (the
// HONGTU_DISABLE_POOL path) epochs: wall-clock per steady epoch, peak live
// host tensor bytes, and heap-allocation counts. The pooled run must reach
// ZERO steady-state allocations; the result is recorded in
// BENCH_memory.json (override with --memory-report=path) and gated by
// ci/check_bench_regression.py --memory.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "hongtu/sim/memory_model.h"
#include "hongtu/tensor/pool.h"

using namespace hongtu;

namespace {

struct Row {
  const char* dataset;
  const char* config;
  MemoryModelInput in;
};

struct MemRow {
  std::string model;
  std::string dataset;
  int chunks = 0;
  bool ok = false;
  double pooled_wall_s = 0;    // mean steady-epoch wall-clock, pool on
  double unpooled_wall_s = 0;  // same with the pool disabled
  int64_t pooled_peak_bytes = 0;
  int64_t unpooled_peak_bytes = 0;
  int64_t epoch1_alloc_count = 0;  // pooled warmup epoch heap allocations
  int64_t steady_alloc_count = 0;  // pooled steady epochs (must be 0)
  int64_t unpooled_alloc_count = 0;  // per steady epoch without the pool
  int64_t steady_pool_hits = 0;
};

struct ModeResult {
  bool ok = false;
  double wall_s = 0;
  int64_t peak_bytes = 0;
  int64_t epoch1_allocs = 0;
  int64_t steady_allocs = 0;
  int64_t steady_hits = 0;
};

/// One warmup epoch + `epochs` measured epochs on the Fig. 11 configuration.
ModeResult RunMode(const Dataset& ds, const ModelConfig& cfg, int chunks,
                   bool pooled, int epochs) {
  TensorPool::Global().SetEnabled(pooled);
  ModeResult out;
  EngineConfig o;
  o.num_devices = 4;
  o.chunks_per_partition = chunks;
  o.device_capacity_bytes = 1ll << 40;
  o.max_inflight = 3;
  auto e = Engine::Create(EngineKind::kHongTu, &ds, cfg, o);
  if (!e.ok()) {
    TensorPool::Global().SetEnabled(true);
    return out;
  }
  auto warm = e.ValueOrDie()->RunEpoch();
  if (!warm.ok()) {
    TensorPool::Global().SetEnabled(true);
    return out;
  }
  out.epoch1_allocs = warm.ValueOrDie().host_alloc_count;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    auto r = e.ValueOrDie()->RunEpoch();
    if (!r.ok()) {
      TensorPool::Global().SetEnabled(true);
      return out;
    }
    const EpochStats& st = r.ValueOrDie();
    out.wall_s += st.wall_seconds / epochs;
    out.peak_bytes = std::max(out.peak_bytes, st.host_peak_bytes);
    out.steady_allocs = std::max(out.steady_allocs, st.host_alloc_count);
    out.steady_hits = std::max(out.steady_hits, st.host_pool_hits);
  }
  out.ok = true;
  TensorPool::Global().SetEnabled(true);
  return out;
}

void WriteMemoryReport(const std::vector<MemRow>& rows, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "table1_memory: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"memory\",\n  \"scale\": %g,\n",
               benchutil::Scale());
  std::fprintf(f, "  \"devices\": 4,\n  \"max_inflight\": 3,\n");
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const MemRow& r = rows[i];
    const char* sep = i + 1 < rows.size() ? "," : "";
    if (!r.ok) {
      std::fprintf(f,
                   "    {\"config\": \"%s_%s\", \"error\": \"run failed\"}%s\n",
                   r.model.c_str(), r.dataset.c_str(), sep);
      continue;
    }
    std::fprintf(
        f,
        "    {\"config\": \"%s_%s\", \"chunks\": %d, "
        "\"pooled_wall_s\": %.6g, \"unpooled_wall_s\": %.6g, "
        "\"wall_speedup\": %.4g, \"pooled_peak_host_bytes\": %lld, "
        "\"unpooled_peak_host_bytes\": %lld, \"epoch1_alloc_count\": %lld, "
        "\"steady_alloc_count\": %lld, \"unpooled_alloc_count\": %lld, "
        "\"steady_pool_hits\": %lld}%s\n",
        r.model.c_str(), r.dataset.c_str(), r.chunks, r.pooled_wall_s,
        r.unpooled_wall_s, r.unpooled_wall_s / r.pooled_wall_s,
        static_cast<long long>(r.pooled_peak_bytes),
        static_cast<long long>(r.unpooled_peak_bytes),
        static_cast<long long>(r.epoch1_alloc_count),
        static_cast<long long>(r.steady_alloc_count),
        static_cast<long long>(r.unpooled_alloc_count),
        static_cast<long long>(r.steady_pool_hits), sep);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nWrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* report_path = "BENCH_memory.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--memory-report=", 16) == 0) {
      report_path = argv[i] + 16;
    }
  }

  const std::vector<Row> rows = {
      {"it-2004", "256-128-128-64",
       {41000000, 1200000000, {256, 128, 128, 64}, ModelKind::kGcn}},
      {"ogbn-paper", "200-128-128-172",
       {111000000, 1600000000, {200, 128, 128, 172}, ModelKind::kGcn}},
      {"friendster", "256-128-128-64",
       {65600000, 2500000000LL, {256, 128, 128, 64}, ModelKind::kGcn}},
  };

  benchutil::PrintTitle(
      "Table 1: memory consumption, 3-layer full-graph GCN",
      "Analytic memory model at the paper's full-scale |V|,|E| and layer "
      "dims.\nPaper values (GB): IT 12.8/177.2/108.3, OPR 18.0/519.4/425.3, "
      "FDS 28.9/293.3/179.3.");
  const std::vector<int> w = {12, 17, 10, 10, 10, 10};
  benchutil::PrintRow({"Dataset", "Model Config", "Topology", "Vtx Data",
                       "Intr Data", "Total"},
                      w);
  benchutil::PrintRule(w);
  for (const Row& r : rows) {
    const MemoryModelOutput out = EvaluateMemoryModel(r.in);
    benchutil::PrintRow(
        {r.dataset, r.config,
         FormatBytes(static_cast<double>(out.topology_bytes)),
         FormatBytes(static_cast<double>(out.vertex_data_bytes)),
         FormatBytes(static_cast<double>(out.intermediate_data_bytes)),
         FormatBytes(static_cast<double>(out.total()))},
        w);
  }

  // Sidebar from §2.4: GPUs needed to hold ogbn-paper's training state.
  const MemoryModelOutput opr = EvaluateMemoryModel(rows[1].in);
  const double a100 = 80.0 * (1ll << 30);
  std::printf("\nA100-80GB GPUs to hold ogbn-paper core training state: "
              "%.0f\n(the paper's ~77 additionally counts neighbor replicas "
              "and communication buffers,\nwhich grow with the GPU count; "
              "see Table 3.)\n",
              static_cast<double>(opr.total()) / a100 + 1);

  // ---- Measured: arena-backed tensor pool on the Fig. 11 configuration ----
  benchutil::PrintTitle(
      "Tensor pool A/B on the Fig. 11 configuration (4 devices, "
      "max_inflight 3)",
      "Pooled vs HONGTU_DISABLE_POOL epochs: steady wall-clock, peak live\n"
      "host tensor bytes and heap-allocation counts. Steady pooled allocs\n"
      "must be ZERO (every buffer comes back from a free-list bucket).");
  const std::vector<int> wm = {6, 12, 9, 9, 8, 9, 9, 10, 9};
  benchutil::PrintRow({"Model", "Dataset", "Pooled", "Unpooled", "Speedup",
                       "PkHost", "E1 alloc", "Steady", "NoPool"},
                      wm);
  benchutil::PrintRule(wm);

  const int epochs = std::max(2, benchutil::Epochs());
  std::vector<MemRow> mrows;
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat}) {
    Dataset ds = benchutil::MustLoad("it-2004");
    const int chunks = kind == GnnKind::kGat ? ds.default_chunks_gat
                                             : ds.default_chunks_gcn;
    ModelConfig cfg =
        ModelConfig::Make(kind, ds.feature_dim(), ds.default_hidden_dim,
                          ds.num_classes, 2, 42);
    MemRow row;
    row.model = GnnKindName(kind);
    row.dataset = ds.name;
    row.chunks = chunks;
    const ModeResult on = RunMode(ds, cfg, chunks, /*pooled=*/true, epochs);
    const ModeResult off = RunMode(ds, cfg, chunks, /*pooled=*/false, epochs);
    row.ok = on.ok && off.ok;
    if (row.ok) {
      row.pooled_wall_s = on.wall_s;
      row.unpooled_wall_s = off.wall_s;
      row.pooled_peak_bytes = on.peak_bytes;
      row.unpooled_peak_bytes = off.peak_bytes;
      row.epoch1_alloc_count = on.epoch1_allocs;
      row.steady_alloc_count = on.steady_allocs;
      row.unpooled_alloc_count = off.steady_allocs;
      row.steady_pool_hits = on.steady_hits;
    }
    mrows.push_back(row);
    benchutil::PrintRow(
        {row.model, row.dataset,
         row.ok ? FormatSeconds(row.pooled_wall_s) : "ERR",
         row.ok ? FormatSeconds(row.unpooled_wall_s) : "ERR",
         row.ok ? FormatDouble(row.unpooled_wall_s / row.pooled_wall_s, 2) +
                      "x"
                : "-",
         row.ok ? FormatBytes(static_cast<double>(row.pooled_peak_bytes))
                : "-",
         row.ok ? std::to_string(row.epoch1_alloc_count) : "-",
         row.ok ? std::to_string(row.steady_alloc_count) : "-",
         row.ok ? std::to_string(row.unpooled_alloc_count) : "-"},
        wm);
  }
  WriteMemoryReport(mrows, report_path);
  return 0;
}
