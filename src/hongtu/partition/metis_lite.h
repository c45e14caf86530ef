/// \file metis_lite.h
/// \brief From-scratch multilevel edge-cut graph partitioner.
///
/// HongTu's first partitioning level is METIS (§4.1): balanced partitions
/// that keep closely-linked vertices together. METIS itself is not available
/// offline, so this module implements the classical multilevel scheme it is
/// built on:
///   1. coarsening by heavy-edge matching,
///   2. initial partitioning by greedy region growing on the coarsest graph,
///   3. uncoarsening with boundary Kernighan-Lin/FM refinement.
/// Directed input edges are treated as undirected for partitioning purposes.

#pragma once

#include <cstdint>
#include <vector>

#include "hongtu/common/status.h"
#include "hongtu/graph/graph.h"

namespace hongtu {

struct MetisLiteOptions {
  /// Allowed imbalance: max part weight <= (1 + imbalance) * avg.
  double imbalance = 0.05;
  /// Stop coarsening below this many vertices (scaled by num_parts).
  int64_t coarsen_until = 256;
  /// Refinement passes per level.
  int refine_passes = 8;
  uint64_t seed = 7;
};

struct PartitionResult {
  /// part_of[v] in [0, num_parts).
  std::vector<int32_t> part_of;
  int num_parts = 0;
  /// Number of cut edges: directed, non-self-loop input edges whose
  /// endpoints lie in different parts. A reciprocal pair u->v, v->u that
  /// is cut counts twice.
  int64_t edge_cut = 0;
};

/// Partitions `g` into `num_parts` balanced parts minimizing edge cut.
Result<PartitionResult> MetisLitePartition(const Graph& g, int num_parts,
                                           const MetisLiteOptions& opts = {});

/// Computes the edge cut of an assignment as PartitionResult::edge_cut
/// counts it: directed edges, each counted once (for tests/benches).
int64_t ComputeEdgeCut(const Graph& g, const std::vector<int32_t>& part_of);

}  // namespace hongtu
