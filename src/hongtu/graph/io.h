/// \file io.h
/// \brief Dataset and graph (de)serialization.
///
/// Two formats:
///  - text edge lists ("src dst" per line, '#' comments) for interoperating
///    with SNAP/WebGraph-style dumps, and
///  - a binary container ("HTDS" magic) that round-trips a full Dataset
///    (graph + features + labels + split) so expensive generator/partition
///    preprocessing can be done once and reloaded.

#pragma once

#include <string>

#include "hongtu/common/status.h"
#include "hongtu/graph/builder.h"
#include "hongtu/graph/generators.h"
#include "hongtu/graph/datasets.h"

namespace hongtu {

/// Reads a whitespace-separated edge list; vertex ids must be in
/// [0, num_vertices). Lines starting with '#' or '%' are skipped.
Result<EdgeList> ReadEdgeListText(const std::string& path);

/// Writes "src dst" lines (without self-loops added by the builder).
Status WriteEdgeListText(const std::string& path, const EdgeList& edges);

/// Builds a Graph directly from a text edge list file.
Result<Graph> LoadGraphFromEdgeList(const std::string& path,
                                    int64_t num_vertices,
                                    GraphBuilderOptions opts = {});

/// Serializes a Dataset to the binary container format, installed
/// crash-atomically (ReplaceFile, common/file.h).
Status SaveDataset(const std::string& path, const Dataset& ds);

/// Loads a Dataset previously written by SaveDataset. Validates the magic,
/// version and structural invariants; every failure is kIoError.
Result<Dataset> LoadDatasetFile(const std::string& path);

}  // namespace hongtu
