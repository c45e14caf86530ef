/// \file chaos_soak.cc
/// \brief Deterministic chaos-soak harness for the intra-epoch recovery
/// layer (net/cluster.h).
///
/// Runs one clean multi-process training baseline, then replays the exact
/// same configuration under a battery of seeded fault scenarios — mid-epoch
/// SIGKILLs against every recovery rung (step replay, survivor adoption,
/// epoch restart), a kill during an in-flight recovery, repeated kills
/// across epochs, seeded drop/delay/disconnect/corruption storms on the RPC
/// wire, checkpoint-write faults, and combinations. Every scenario must
/// finish with a CRC32C state digest (weights + Adam moments + step count)
/// bitwise-identical to the clean run and the same per-epoch loss sequence;
/// any divergence, error, or missing recovery action fails the binary.
///
/// The coordinator is a crash domain of its own: four scenarios crash it
/// (the in-process drill — equivalent to SIGKILL for cluster state: the
/// sockets and journal fd vanish, the workers and disk survive) and start
/// a successor with resume=true in the same harness process. The successor
/// must replay the write-ahead cluster journal, re-attach the surviving
/// workers under a bumped term, adopt the in-flight epoch with the
/// journaled done reports prefilled, and reach the same digest + loss
/// sequence — including with a worker death in flight at crash time, and
/// with a corrupted journal (which must degrade to the checkpoint-fallback
/// rung, never to a wrong answer). Coordinator restart latency (successor
/// Start -> workers re-attached and epoch adopted) lands in the report.
///
/// The harness also measures the recovery-latency claim of the step rung.
/// Two numbers land in the report, both net of the (identical) death-
/// detection window:
///   - step_overhead_s / epoch_rerun_overhead_s: total wall each rung adds
///     for the same death. At balanced partitions these are close to equal
///     by construction — every rung must re-cover exactly the work the dead
///     rank lost — so this ratio documents the honest wall picture.
///   - death_to_resume_s: the coordinator-side recovery stall (detect ->
///     respawn -> hello -> peer rebroadcast -> epoch state resent). This is
///     what the step rung actually charges the cluster's critical path
///     beyond the unavoidable replay, and the <50%-of-full-epoch-rerun
///     assertion compares it against epoch_rerun_overhead_s. The step
///     rung's other wins (W-times less redone CPU work, weights re-sent to
///     one rank instead of all W, survivor state kept live) do not show up
///     in wall-clock at all.
///
/// `--assert-recovery-ratio` turns these into gates, and adds one more:
/// `kill_during_recovery` and `coordinator_plus_worker_double_kill` must
/// each finish inside one `rpc_deadline_s`. A verified death fails the
/// calls to the dead rank at once, so no recovery waits out an RPC deadline.
///
/// Results merge into BENCH_fault.json as a "chaos" section (or stand
/// alone when the report file does not exist yet).
///
/// Usage:
///   ./build/chaos_soak [--scale=0.15] [--workers=4] [--epochs=2]
///                      [--transport=uds] [--report=BENCH_fault.json]
///                      [--assert-recovery-ratio]
///
/// Determinism: every injected fault is seeded (fault spec seeds, fixed
/// kill epochs/ranks, fixed dataset/model/partition seeds), so the pass
/// criteria are exact equality, not tolerances.

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hongtu/common/crc32c.h"
#include "hongtu/common/fault.h"
#include "hongtu/graph/datasets.h"
#include "hongtu/net/cluster.h"

using namespace hongtu;

namespace {

uint32_t TensorDigest(const Tensor& t, uint32_t crc) {
  return Crc32c(t.data(), static_cast<size_t>(t.rows() * t.cols()) * 4, crc);
}

uint32_t StateDigest(GnnModel* model, const Adam& adam) {
  uint32_t crc = 0;
  int i = 0;
  for (const Tensor* p : model->AllParams()) {
    crc = TensorDigest(*p, crc);
    crc = TensorDigest(adam.moment1(i), crc);
    crc = TensorDigest(adam.moment2(i), crc);
    ++i;
  }
  const int64_t t = adam.step_count();
  return Crc32c(&t, sizeof(t), crc);
}

struct SoakConfig {
  std::string transport = "uds";
  std::string report = "BENCH_fault.json";
  double scale = 0.15;
  int workers = 4;
  int epochs = 2;
  bool assert_ratio = false;
};

struct Outcome {
  bool ok = false;
  std::string error;
  uint32_t digest = 0;
  std::vector<double> losses;
  std::vector<double> walls;  ///< per-epoch wall seconds
  int respawns = 0;
  int step_recoveries = 0;
  int adoptions = 0;
  double recovery_seconds = 0.0;  ///< death-to-resume, summed over epochs
  double total_wall = 0.0;
  // Coordinator-restart scenarios only:
  int coord_restarts = 0;
  int reattaches = 0;              ///< survivors re-attached by the successor
  double restart_latency_s = -1.0; ///< successor Start: replay + re-attach
};

net::ClusterConfig BaseConfig(const SoakConfig& soak, const Dataset& ds) {
  net::ClusterConfig cc;
  cc.transport = soak.transport;
  cc.num_workers = soak.workers;
  cc.dataset = "reddit";
  cc.dataset_scale = soak.scale;
  cc.dataset_seed = ds.load_seed;
  cc.model_kind = GnnKind::kGcn;
  cc.model_dims = {ds.feature_dim(), 16, ds.num_classes};
  cc.model_seed = 2024;
  cc.chunks_per_partition = 2;
  cc.heartbeat_interval_s = 0.05;
  cc.peer_timeout_s = 1.0;
  cc.rpc_deadline_s = 5.0;
  cc.epoch_deadline_s = 90.0;  // a wedged scenario fails fast, not in 5 min
  return cc;
}

void RemoveTree(const std::string& path) {
  DIR* d = ::opendir(path.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string p = path + "/" + name;
      if (::unlink(p.c_str()) != 0) RemoveTree(p);
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

/// One full coordinator lifecycle under this scenario's config mutation.
/// `post_start` (optional) arms coordinator-side fault sites after the
/// workers are up — worker processes never inherit this registry.
Outcome RunScenario(const SoakConfig& soak, const Dataset& ds,
                    const std::function<void(net::ClusterConfig*)>& mutate,
                    const std::function<void()>& post_start = {}) {
  Outcome out;
  net::ClusterConfig cc = BaseConfig(soak, ds);
  if (mutate) mutate(&cc);
  const auto t0 = std::chrono::steady_clock::now();
  auto cr = net::ClusterCoordinator::Start(std::move(cc));
  if (!cr.ok()) {
    out.error = cr.status().ToString();
    return out;
  }
  std::unique_ptr<net::ClusterCoordinator> coord = cr.MoveValueUnsafe();
  if (post_start) post_start();
  for (int e = 0; e < soak.epochs; ++e) {
    auto er = coord->RunEpoch();
    if (!er.ok()) {
      out.error = er.status().ToString();
      return out;
    }
    out.losses.push_back(er.ValueOrDie().loss);
    out.walls.push_back(er.ValueOrDie().wall_seconds);
  }
  out.digest = StateDigest(coord->model(), *coord->adam());
  out.respawns = coord->respawn_count();
  out.step_recoveries = coord->step_recovery_count();
  out.adoptions = coord->adoption_count();
  out.recovery_seconds = coord->recovery_seconds();
  out.total_wall = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  out.ok = true;
  return out;
}

/// Coordinator crash + successor takeover in one harness lifecycle.
///
/// Phase 1 runs `phase1_epochs` with `mutate` applied (crash drills and/or
/// worker kills) against stable on-disk state. When `expect_crash`, the
/// drill must fire (RunEpoch fails, the coordinator object is left in its
/// post-crash state: sockets and journal fd gone, workers and disk alive);
/// otherwise phase 1 must finish cleanly and is shut down normally. With
/// `corrupt_journal`, the journal header is then damaged so the successor's
/// replay MUST fail and degrade to the checkpoint-fallback rung. Phase 2
/// starts a successor with resume=true (no drills) and trains whatever the
/// applied-epoch floor says is left of soak.epochs. Losses concatenate
/// across the phases — the pass criteria against the clean run are
/// unchanged.
Outcome RunCoordRestartScenario(
    const SoakConfig& soak, const Dataset& ds,
    const std::function<void(net::ClusterConfig*)>& mutate, bool expect_crash,
    int phase1_epochs, bool corrupt_journal) {
  Outcome out;
  char tmpl[] = "/tmp/hongtu-chaos.XXXXXX";
  const char* dirp = ::mkdtemp(tmpl);
  if (dirp == nullptr) {
    out.error = "mkdtemp failed";
    return out;
  }
  const std::string dir = dirp;
  const auto t0 = std::chrono::steady_clock::now();

  {
    net::ClusterConfig c1 = BaseConfig(soak, ds);
    c1.runtime_dir = dir;
    c1.checkpoint_dir = dir;
    if (mutate) mutate(&c1);
    auto cr = net::ClusterCoordinator::Start(std::move(c1));
    if (!cr.ok()) {
      out.error = "phase 1 start: " + cr.status().ToString();
      RemoveTree(dir);
      return out;
    }
    std::unique_ptr<net::ClusterCoordinator> coord = cr.MoveValueUnsafe();
    bool crashed = false;
    for (int e = 0; e < phase1_epochs; ++e) {
      auto er = coord->RunEpoch();
      if (!er.ok()) {
        crashed = true;
        break;
      }
      out.losses.push_back(er.ValueOrDie().loss);
      out.walls.push_back(er.ValueOrDie().wall_seconds);
    }
    if (expect_crash && !crashed) {
      out.error = "coordinator crash drill never fired in phase 1";
      coord->Shutdown();
      RemoveTree(dir);
      return out;
    }
    if (!expect_crash) {
      if (crashed) {
        out.error = "phase 1 failed before the planned handover";
        RemoveTree(dir);
        return out;
      }
      coord->Shutdown();  // clean handover: workers exit, journal survives
    }
    // A crashed coordinator's destructor must not touch the workers or the
    // on-disk state the successor is about to claim.
  }

  if (corrupt_journal) {
    std::FILE* f = std::fopen((dir + "/cluster.journal").c_str(), "r+b");
    if (f == nullptr) {
      out.error = "journal missing before corruption";
      RemoveTree(dir);
      return out;
    }
    std::fseek(f, 1, SEEK_SET);  // break the magic: replay must fail loudly
    std::fputc(0x7f, f);
    std::fclose(f);
  }

  net::ClusterConfig c2 = BaseConfig(soak, ds);
  c2.runtime_dir = dir;
  c2.checkpoint_dir = dir;
  c2.resume = true;
  const auto r0 = std::chrono::steady_clock::now();
  auto cr2 = net::ClusterCoordinator::Start(std::move(c2));
  if (!cr2.ok()) {
    out.error = "successor start: " + cr2.status().ToString();
    RemoveTree(dir);
    return out;
  }
  std::unique_ptr<net::ClusterCoordinator> succ = cr2.MoveValueUnsafe();
  out.restart_latency_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - r0)
                              .count();
  out.coord_restarts = 1;
  out.reattaches = succ->reattach_count();
  for (int e = static_cast<int>(succ->epochs_completed()); e < soak.epochs;
       ++e) {
    auto er = succ->RunEpoch();
    if (!er.ok()) {
      out.error = "successor epoch " + std::to_string(e) + ": " +
                  er.status().ToString();
      succ->Shutdown();
      RemoveTree(dir);
      return out;
    }
    out.losses.push_back(er.ValueOrDie().loss);
    out.walls.push_back(er.ValueOrDie().wall_seconds);
  }
  out.digest = StateDigest(succ->model(), *succ->adam());
  out.respawns = succ->respawn_count();
  out.step_recoveries = succ->step_recovery_count();
  out.adoptions = succ->adoption_count();
  out.recovery_seconds = succ->recovery_seconds();
  succ->Shutdown();
  out.total_wall = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  out.ok = true;
  RemoveTree(dir);
  return out;
}

struct Scenario {
  std::string name;
  std::function<void(net::ClusterConfig*)> mutate;
  std::function<void()> post_start;
  /// Extra pass predicate on top of digest identity ("" = pass).
  std::function<std::string(const Outcome&)> expect;
  /// Custom lifecycle (coordinator-restart scenarios); overrides mutate/
  /// post_start when set.
  std::function<Outcome(const SoakConfig&, const Dataset&)> run;
};

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') (o += '\\') += c;
    else if (c == '\n') o += "\\n";
    else o += c;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // Must run before anything else: under HONGTU_DIST_ROLE=worker this
  // process IS a cluster worker and never reaches the harness code.
  net::MaybeRunClusterWorker();

  SoakConfig soak;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--scale=", 8) == 0) soak.scale = std::atof(a + 8);
    else if (std::strncmp(a, "--workers=", 10) == 0)
      soak.workers = std::atoi(a + 10);
    else if (std::strncmp(a, "--epochs=", 9) == 0)
      soak.epochs = std::atoi(a + 9);
    else if (std::strncmp(a, "--transport=", 12) == 0) soak.transport = a + 12;
    else if (std::strncmp(a, "--report=", 9) == 0) soak.report = a + 9;
    else if (std::strcmp(a, "--assert-recovery-ratio") == 0)
      soak.assert_ratio = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return 2;
    }
  }
  if (soak.workers < 3) {
    // kill_rank=1 with kill_on_recover_rank=2 and the adoption host
    // election all need at least 3 distinct ranks.
    std::fprintf(stderr, "chaos_soak needs --workers>=3\n");
    return 2;
  }

  std::printf("== chaos soak: %d workers, %d epochs, scale %.2f, %s ==\n",
              soak.workers, soak.epochs, soak.scale, soak.transport.c_str());
  auto dsr = LoadDatasetScaled("reddit", soak.scale);
  if (!dsr.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dsr.status().ToString().c_str());
    return 1;
  }
  const Dataset ds = dsr.MoveValueUnsafe();

  const double pto = 1.0;  // keep in sync with RunScenario's peer_timeout_s

  // ---- Scenario battery. Every seed below is part of the contract: the
  // same binary run twice produces the same fault schedule.
  std::vector<Scenario> scenarios;
  auto expect_min = [](int Outcome::*field, int min, const char* what) {
    return [field, min, what](const Outcome& o) -> std::string {
      if (o.*field >= min) return "";
      std::ostringstream e;
      e << "expected " << what << " >= " << min << ", got " << o.*field;
      return e.str();
    };
  };

  scenarios.push_back({"kill_mid_epoch_step",
                       [](net::ClusterConfig* c) {
                         c->kill_rank = 1;
                         c->kill_epoch = 0;
                       },
                       {},
                       expect_min(&Outcome::step_recoveries, 1,
                                  "step_recoveries")});
  scenarios.push_back({"kill_mid_epoch_adopt",
                       [](net::ClusterConfig* c) {
                         c->recover_mode = "adopt";
                         c->kill_rank = 1;
                         c->kill_epoch = 0;
                       },
                       {},
                       expect_min(&Outcome::adoptions, 1, "adoptions")});
  scenarios.push_back({"kill_mid_epoch_epoch_ladder",
                       [](net::ClusterConfig* c) {
                         c->recover_mode = "epoch";
                         c->kill_rank = 1;
                         c->kill_epoch = 0;
                       },
                       {},
                       expect_min(&Outcome::respawns, 1, "respawns")});
  scenarios.push_back({"kill_during_recovery",
                       [](net::ClusterConfig* c) {
                         c->kill_rank = 1;
                         c->kill_epoch = 0;
                         c->kill_on_recover_rank = 2;
                       },
                       {},
                       expect_min(&Outcome::step_recoveries, 2,
                                  "step_recoveries")});
  scenarios.push_back({"repeated_kills",
                       [](net::ClusterConfig* c) {
                         c->kill_rank = 1;
                         c->kill_epoch = 0;
                         c->kill2_rank = 2;
                         c->kill2_epoch = 1;
                       },
                       {},
                       expect_min(&Outcome::step_recoveries, 2,
                                  "step_recoveries")});
  scenarios.push_back({"net_drop_storm",
                       [](net::ClusterConfig* c) {
                         c->fault_rank = 1;
                         c->worker_fault_spec =
                             "net.send:drop:0.05:101;net.recv:drop:0.03:103";
                       },
                       {},
                       {}});
  scenarios.push_back({"delay_disconnect_storm",
                       [](net::ClusterConfig* c) {
                         c->fault_rank = 2;
                         c->worker_fault_spec =
                             "net.send:delay:0.08:107;"
                             "net.recv:disconnect:0.02:109";
                       },
                       {},
                       {}});
  scenarios.push_back({"corrupt_payload_storm",
                       [](net::ClusterConfig* c) {
                         c->fault_rank = 1;
                         c->worker_fault_spec = "net.send:corrupt:0.05:113";
                       },
                       {},
                       {}});
  scenarios.push_back({"kill_plus_drop_storm",
                       [](net::ClusterConfig* c) {
                         c->kill_rank = 1;
                         c->kill_epoch = 0;
                         c->fault_rank = 2;
                         c->worker_fault_spec = "net.send:drop:0.04:127";
                       },
                       {},
                       expect_min(&Outcome::step_recoveries, 1,
                                  "step_recoveries")});
  scenarios.push_back(
      {"ckpt_fault_with_net_faults",
       [](net::ClusterConfig* c) {
         c->fault_rank = 1;
         c->worker_fault_spec = "net.send:drop:0.04:17";
       },
       [] {
         fault::SiteSpec spec;
         spec.kind = fault::Kind::kTransient;
         spec.prob = 0.5;
         spec.seed = 99;
         const Status s = fault::Arm(fault::Site::kCkptWrite, spec);
         if (!s.ok()) {
           std::fprintf(stderr, "arm ckpt.write: %s\n", s.ToString().c_str());
           std::exit(1);
         }
       },
       {}});

  // ---- Coordinator crash domain. Each runs a crash + successor-takeover
  // lifecycle (RunCoordRestartScenario); digest + loss identity criteria
  // are the same as every other scenario.
  const int W = soak.workers;
  scenarios.push_back(
      {"coordinator_crash_mid_epoch",
       {},
       {},
       [W](const Outcome& o) -> std::string {
         if (o.reattaches < W)
           return "expected every worker to re-attach (" +
                  std::to_string(o.reattaches) + "/" + std::to_string(W) + ")";
         if (o.respawns != 0)
           return "survivors should re-attach, not respawn (got " +
                  std::to_string(o.respawns) + ")";
         return "";
       },
       [W](const SoakConfig& s, const Dataset& d) {
         // Crash after EVERY done report of epoch 0 is journaled but before
         // the Adam apply: the successor must adopt the run and finish the
         // epoch purely from the journal — zero recomputation.
         return RunCoordRestartScenario(
             s, d,
             [W](net::ClusterConfig* c) {
               c->coord_crash_epoch = 0;
               c->coord_crash_done = W;
             },
             /*expect_crash=*/true, /*phase1_epochs=*/s.epochs,
             /*corrupt_journal=*/false);
       }});
  scenarios.push_back(
      {"coordinator_crash_during_worker_recovery",
       {},
       {},
       [](const Outcome& o) -> std::string {
         if (o.respawns < 1)
           return "the dead worker must be respawned by the successor";
         if (o.reattaches < 1) return "survivors must re-attach";
         return "";
       },
       [W](const SoakConfig& s, const Dataset& d) {
         // Worker 1 SIGKILLs itself mid-epoch; the crash drill fires at its
         // verified death, before all W reports could be journaled. The
         // successor inherits BOTH failures: respawn + rejoin the dead
         // rank, re-attach the rest.
         return RunCoordRestartScenario(
             s, d,
             [W](net::ClusterConfig* c) {
               c->kill_rank = 1;
               c->kill_epoch = 0;
               c->coord_crash_epoch = 0;
               c->coord_crash_done = W;
             },
             /*expect_crash=*/true, /*phase1_epochs=*/s.epochs,
             /*corrupt_journal=*/false);
       }});
  scenarios.push_back(
      {"coordinator_plus_worker_double_kill",
       {},
       {},
       [](const Outcome& o) -> std::string {
         if (o.respawns < 1)
           return "the dead worker must be respawned by the successor";
         return "";
       },
       [](const SoakConfig& s, const Dataset& d) {
         // Worker 1 dies mid-epoch AND the coordinator crashes at two
         // journaled reports or r1's verified death, whichever comes first
         // — before anyone recovered r1.
         return RunCoordRestartScenario(
             s, d,
             [](net::ClusterConfig* c) {
               c->kill_rank = 1;
               c->kill_epoch = 0;
               c->coord_crash_epoch = 0;
               c->coord_crash_done = 2;
             },
             /*expect_crash=*/true, /*phase1_epochs=*/s.epochs,
             /*corrupt_journal=*/false);
       }});
  scenarios.push_back(
      {"journal_corruption_fallback",
       {},
       {},
       [](const Outcome& o) -> std::string {
         if (o.reattaches != 0)
           return "a corrupt journal must not drive re-attachment";
         return "";
       },
       [](const SoakConfig& s, const Dataset& d) {
         // Clean handover after epoch 0, then the journal header is
         // damaged. The successor must refuse the replay, fall back to the
         // checkpoint rung (fresh workers, applied-epoch floor from the
         // checkpoint) and still converge to the identical state.
         return RunCoordRestartScenario(s, d, {},
                                        /*expect_crash=*/false,
                                        /*phase1_epochs=*/1,
                                        /*corrupt_journal=*/true);
       }});

  // ---- Baseline.
  std::printf("-- baseline (clean) ...\n");
  const Outcome clean = RunScenario(soak, ds, {});
  if (!clean.ok) {
    std::fprintf(stderr, "baseline failed: %s\n", clean.error.c_str());
    return 1;
  }
  std::printf("   digest %08x, epoch walls:", clean.digest);
  for (double w : clean.walls) std::printf(" %.3fs", w);
  std::printf("\n");

  // ---- The battery.
  struct Row {
    std::string name;
    Outcome o;
    bool pass = false;
    std::string why;
  };
  std::vector<Row> rows;
  int failures = 0;
  for (const Scenario& sc : scenarios) {
    std::printf("-- %s ...\n", sc.name.c_str());
    Row r;
    r.name = sc.name;
    r.o = sc.run ? sc.run(soak, ds)
                 : RunScenario(soak, ds, sc.mutate, sc.post_start);
    fault::DisarmAll();  // coordinator-side arms must not leak across rows
    if (!r.o.ok) {
      r.why = r.o.error;
    } else if (r.o.digest != clean.digest) {
      std::ostringstream e;
      e << "digest mismatch: " << std::hex << r.o.digest << " vs clean "
        << clean.digest;
      r.why = e.str();
    } else if (r.o.losses != clean.losses) {
      r.why = "per-epoch loss sequence diverged from clean run";
    } else if (sc.expect) {
      r.why = sc.expect(r.o);
    }
    r.pass = r.why.empty();
    if (!r.pass) ++failures;
    std::printf("   %s  wall %.2fs  recov %d step / %d adopt / %d respawn%s%s\n",
                r.pass ? "PASS" : "FAIL", r.o.total_wall,
                r.o.step_recoveries, r.o.adoptions, r.o.respawns,
                r.pass ? "" : "  -- ", r.pass ? "" : r.why.c_str());
    rows.push_back(std::move(r));
  }

  // ---- Recovery never waits out an RPC deadline: a verified death fails
  // every call to the dead rank at once, so neither double fault may last
  // one rpc_deadline_s. The drop storms are not bounded here: a dropped
  // frame is only noticed when its call's deadline expires.
  if (soak.assert_ratio) {
    const double rpc_deadline = BaseConfig(soak, ds).rpc_deadline_s;
    for (const Row& r : rows) {
      if (r.name != "kill_during_recovery" &&
          r.name != "coordinator_plus_worker_double_kill") {
        continue;
      }
      if (r.o.total_wall >= rpc_deadline) {
        std::fprintf(stderr,
                     "FAIL: %s took %.2fs, not under rpc_deadline_s %.1fs\n",
                     r.name.c_str(), r.o.total_wall, rpc_deadline);
        ++failures;
      } else {
        std::printf("   PASS  %s %.2fs < rpc_deadline_s %.1fs\n",
                    r.name.c_str(), r.o.total_wall, rpc_deadline);
      }
    }
  }

  // ---- Recovery-latency comparison: what the death cost under step replay
  // versus under the epoch-restart ladder. Death detection (the peer
  // timeout) is identical for every rung, so it is netted out of both.
  const Outcome* step_kill = nullptr;
  const Outcome* epoch_kill = nullptr;
  const Outcome* coord_kill = nullptr;
  for (const Row& r : rows) {
    if (r.name == "kill_mid_epoch_step" && r.pass) step_kill = &r.o;
    if (r.name == "kill_mid_epoch_epoch_ladder" && r.pass) epoch_kill = &r.o;
    if (r.name == "coordinator_crash_mid_epoch" && r.pass) coord_kill = &r.o;
  }
  double clean_e0 = clean.walls.empty() ? 0.0 : clean.walls[0];
  double step_overhead = -1.0, epoch_overhead = -1.0, wall_ratio = -1.0;
  double death_to_resume = -1.0, machinery_ratio = -1.0;
  if (step_kill != nullptr && epoch_kill != nullptr && !step_kill->walls.empty()
      && !epoch_kill->walls.empty()) {
    step_overhead = step_kill->walls[0] - clean_e0 - pto;
    epoch_overhead = epoch_kill->walls[0] - clean_e0 - pto;
    death_to_resume = step_kill->recovery_seconds;
    if (epoch_overhead > 1e-6) {
      wall_ratio = step_overhead / epoch_overhead;
      machinery_ratio = death_to_resume / epoch_overhead;
    }
    std::printf(
        "-- recovery latency: clean epoch %.3fs | step adds %.3fs, epoch "
        "ladder adds %.3fs (detection %.1fs netted out, wall ratio %.2f) | "
        "recovery stall %.3fs = %.2f of the full-epoch rerun\n",
        clean_e0, step_overhead, epoch_overhead, pto, wall_ratio,
        death_to_resume, machinery_ratio);
    if (soak.assert_ratio) {
      if (machinery_ratio < 0.0 || machinery_ratio >= 0.5) {
        std::fprintf(stderr,
                     "FAIL: step-recovery stall %.3fs is not <50%% of the "
                     "full-epoch-rerun overhead %.3fs (ratio %.2f)\n",
                     death_to_resume, epoch_overhead, machinery_ratio);
        ++failures;
      } else {
        std::printf(
            "   PASS  recovery stall < 50%% of the full-epoch rerun\n");
      }
    }
  }

  // ---- Coordinator restart latency: the successor's Start (journal
  // replay + re-attach + adoption arming) against a full epoch-0 rerun —
  // the cost a journal-less coordinator restart would have paid.
  double coord_restart_latency = -1.0, coord_restart_ratio = -1.0;
  if (coord_kill != nullptr) {
    coord_restart_latency = coord_kill->restart_latency_s;
    if (clean_e0 > 1e-6) coord_restart_ratio = coord_restart_latency / clean_e0;
    std::printf(
        "-- coordinator restart: %.3fs to replay + re-attach %d workers "
        "(%.2f of a clean epoch; the adopted epoch itself recomputes "
        "nothing)\n",
        coord_restart_latency, coord_kill->reattaches, coord_restart_ratio);
    if (soak.assert_ratio && !coord_kill->walls.empty() &&
        clean_e0 > 1e-6 && coord_kill->walls[0] >= clean_e0) {
      // The adopted epoch completes from journaled reports: its wall must
      // undercut a full rerun of the epoch.
      std::fprintf(stderr,
                   "FAIL: adopted epoch wall %.3fs is not below the clean "
                   "epoch rerun %.3fs\n",
                   coord_kill->walls[0], clean_e0);
      ++failures;
    }
  }

  // ---- Merge the "chaos" section into the fault report.
  std::ostringstream js;
  js << "\"chaos\": {\n"
     << "    \"workers\": " << soak.workers << ", \"epochs\": " << soak.epochs
     << ", \"scale\": " << soak.scale << ", \"transport\": \""
     << soak.transport << "\",\n"
     << "    \"clean_digest\": \"" << std::hex << clean.digest << std::dec
     << "\", \"clean_epoch0_wall_s\": " << clean_e0 << ",\n"
     << "    \"recovery_latency\": {\"step_overhead_s\": " << step_overhead
     << ", \"epoch_rerun_overhead_s\": " << epoch_overhead
     << ", \"step_vs_epoch_wall_ratio\": " << wall_ratio
     << ", \"death_to_resume_s\": " << death_to_resume
     << ", \"recovery_stall_vs_rerun_ratio\": " << machinery_ratio
     << ", \"detection_window_s\": " << pto << "},\n"
     << "    \"coordinator_restart\": {\"restart_latency_s\": "
     << coord_restart_latency
     << ", \"restart_vs_clean_epoch_ratio\": " << coord_restart_ratio
     << ", \"reattaches\": "
     << (coord_kill != nullptr ? coord_kill->reattaches : -1) << "},\n"
     << "    \"scenarios\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    js << "      {\"name\": \"" << r.name << "\", \"pass\": "
       << (r.pass ? "true" : "false") << ", \"wall_s\": " << r.o.total_wall
       << ", \"step_recoveries\": " << r.o.step_recoveries
       << ", \"adoptions\": " << r.o.adoptions
       << ", \"respawns\": " << r.o.respawns;
    if (r.o.coord_restarts > 0) {
      js << ", \"coord_restarts\": " << r.o.coord_restarts
         << ", \"reattaches\": " << r.o.reattaches
         << ", \"restart_latency_s\": " << r.o.restart_latency_s;
    }
    if (!r.why.empty()) js << ", \"error\": \"" << JsonEscape(r.why) << "\"";
    js << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "    ]\n  }";

  if (!soak.report.empty()) {
    std::string existing;
    {
      std::ifstream in(soak.report);
      if (in) {
        std::ostringstream ss;
        ss << in.rdbuf();
        existing = ss.str();
      }
    }
    std::string merged;
    const size_t prev = existing.find(",\n  \"chaos\":");
    if (prev != std::string::npos) {
      // Replace a previous run's section: drop it and close the object
      // again so the generic last-brace splice below still applies.
      existing.erase(prev);
      existing += "\n}\n";
    }
    const size_t close = existing.rfind('}');
    if (close != std::string::npos) {
      merged = existing.substr(0, close);
      while (!merged.empty() &&
             (merged.back() == '\n' || merged.back() == ' '))
        merged.pop_back();
      merged += ",\n  " + js.str() + "\n}\n";
    } else {
      merged = "{\n  " + js.str() + "\n}\n";
    }
    std::ofstream outf(soak.report, std::ios::trunc);
    outf << merged;
    std::printf("-- report merged into %s\n", soak.report.c_str());
  }

  if (failures > 0) {
    std::fprintf(stderr, "chaos soak: %d scenario(s) FAILED\n", failures);
    return 1;
  }
  std::printf("chaos soak: all %zu scenarios digest-identical. OK\n",
              rows.size());
  return 0;
}
