// Ablation (DESIGN.md): the recomputation-caching hybrid (§4.2) versus pure
// recomputation, across all cacheable models and the three large graphs.
// The paper motivates the hybrid with the O(alpha|V|) -> O(|V|) host-traffic
// conversion; this bench quantifies when it pays off: the win grows with the
// replication factor alpha and disappears when alpha < 2 (cache write+read
// costs 2|V| rows). Also reports the GPU-time saving from skipping the
// AGGREGATE recomputation.

#include <cstdio>

#include "bench_util.h"
#include "hongtu/engine/hongtu_engine.h"

using namespace hongtu;

int main() {
  benchutil::PrintTitle(
      "Ablation: recomputation-caching hybrid vs pure recomputation",
      "2-layer models, 4 devices, vanilla per-chunk loading (the regime of "
      "the paper's\nO(alpha|V|) vs O(|V|) argument). 'win' = recompute / "
      "hybrid simulated time.");
  const std::vector<int> w = {6, 12, 7, 11, 11, 11, 11, 7};
  benchutil::PrintRow({"Model", "Dataset", "alpha", "hyb H2D", "rec H2D",
                       "hyb GPU", "rec GPU", "win"},
                      w);
  benchutil::PrintRule(w);

  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGin}) {
    for (const char* name : {"it-2004", "ogbn-paper", "friendster"}) {
      Dataset ds = benchutil::MustLoad(name);
      ModelConfig cfg =
          ModelConfig::Make(kind, ds.feature_dim(), ds.default_hidden_dim,
                            ds.num_classes, 2, 42);
      EpochStats st[2];
      double alpha = 0;
      bool ok = true;
      for (int hybrid = 0; hybrid < 2 && ok; ++hybrid) {
        EngineConfig o;
        o.num_devices = 4;
        o.chunks_per_partition = ds.default_chunks_gcn;
        o.device_capacity_bytes = 1ll << 40;
        o.dedup = DedupLevel::kNone;  // vanilla loading regime
        o.hybrid_cache = hybrid == 1;
        auto e = HongTuEngine::Create(&ds, cfg, o);
        if (!e.ok()) {
          ok = false;
          break;
        }
        alpha = e.ValueOrDie()->partition().ReplicationFactor(
            ds.graph.num_vertices());
        auto r = e.ValueOrDie()->TrainEpoch();
        if (!r.ok()) {
          ok = false;
          break;
        }
        st[hybrid] = r.ValueOrDie();
      }
      if (!ok) continue;
      benchutil::PrintRow(
          {GnnKindName(kind), ds.name, FormatDouble(alpha, 2),
           FormatBytes(static_cast<double>(st[1].bytes.h2d)),
           FormatBytes(static_cast<double>(st[0].bytes.h2d)),
           FormatSeconds(st[1].time.gpu), FormatSeconds(st[0].time.gpu),
           FormatDouble(st[0].SimSeconds() / st[1].SimSeconds(), 2) + "x"},
          w);
    }
  }
  std::printf("\nGAT is excluded: its edge-NN AGGREGATE is not cacheable and "
              "always recomputes (§4.2).\n");
  return 0;
}
