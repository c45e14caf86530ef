#include "hongtu/graph/io.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "hongtu/common/fault.h"
#include "hongtu/common/file.h"
#include "hongtu/common/wire.h"

namespace hongtu {

namespace {

constexpr uint32_t kMagic = 0x53445448u;  // "HTDS" little-endian
constexpr uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// The HTDS layout, in file order (WireWriter fields; vectors are a u64
/// count then the elements):
///   magic, u32 version, str name, i64 |V|, vec<i64> in_offsets,
///   vec<i32> in_neighbors, i64 rows, i64 cols, rows x cols f32 features,
///   i32 num_classes, vec<i32> labels, vec<u8> split roles, then the i32
///   hidden/chunk defaults and the paper's |V|, |E| (i64), dim, classes.
std::string EncodeDataset(const Dataset& ds) {
  WireWriter w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.Str(ds.name);
  // Graph: reconstruct from the CSC view on load (builder re-derives CSR
  // and weights deterministically).
  w.I64(ds.graph.num_vertices());
  w.Vec(ds.graph.in_offsets());
  w.Vec(ds.graph.in_neighbors());
  w.I64(ds.features.rows());
  w.I64(ds.features.cols());
  w.Bytes(ds.features.data(), static_cast<size_t>(ds.features.bytes()));
  w.I32(ds.num_classes);
  w.Vec(ds.labels);
  w.Vec(ds.split);
  w.I32(ds.default_hidden_dim);
  w.I32(ds.default_chunks_gcn);
  w.I32(ds.default_chunks_gat);
  w.I64(ds.paper_num_vertices);
  w.I64(ds.paper_num_edges);
  w.I32(ds.paper_feature_dim);
  w.I32(ds.paper_num_classes);
  return w.Take();
}

/// Runs the cursor reads of one section; a failure (a truncated file or a
/// length past its end) becomes the kIoError every dataset-file failure is,
/// naming the section.
template <typename Reads>
Status ReadSection(const char* section, Reads reads) {
  const Status st = reads();
  if (st.ok()) return st;
  return Status::IoError(std::string("corrupt ") + section + ": " +
                         st.message());
}

/// Decodes and validates an HTDS image.
Status DecodeDataset(const std::string& image, Dataset* ds) {
  WireReader r(image);
  HT_RETURN_IF_ERROR(ReadSection("header", [&]() -> Status {
    HT_ASSIGN_OR_RETURN(const uint32_t magic, r.U32());
    if (magic != kMagic) return Status::IoError("not a HongTu dataset file");
    HT_ASSIGN_OR_RETURN(const uint32_t version, r.U32());
    if (version != kVersion) {
      return Status::IoError("unsupported version " + std::to_string(version));
    }
    HT_ASSIGN_OR_RETURN(ds->name, r.Str());
    return Status::OK();
  }));

  int64_t nv = 0;
  std::vector<EdgeId> in_offsets;
  std::vector<VertexId> in_neighbors;
  HT_RETURN_IF_ERROR(ReadSection("graph section", [&]() -> Status {
    HT_ASSIGN_OR_RETURN(nv, r.I64());
    HT_RETURN_IF_ERROR(r.Vec(&in_offsets));
    return r.Vec(&in_neighbors);
  }));
  if (nv <= 0 || static_cast<int64_t>(in_offsets.size()) != nv + 1) {
    return Status::IoError("corrupt graph section");
  }
  // A valid CSC column-offset array starts at 0, never decreases, and ends
  // at the neighbor count; every neighbor id must name a stored vertex.
  // Garbage in either array would otherwise turn into out-of-bounds reads
  // in the edge-list reconstruction below.
  if (in_offsets.front() != 0 ||
      in_offsets.back() != static_cast<EdgeId>(in_neighbors.size())) {
    return Status::IoError("corrupt graph section: bad offset bounds");
  }
  for (int64_t v = 0; v < nv; ++v) {
    if (in_offsets[v + 1] < in_offsets[v]) {
      return Status::IoError("corrupt graph section: offsets not monotone");
    }
  }
  for (const VertexId u : in_neighbors) {
    if (u < 0 || static_cast<int64_t>(u) >= nv) {
      return Status::IoError("corrupt graph section: neighbor id out of "
                             "range");
    }
  }
  // Rebuild through the builder (self-loops already present in the stored
  // edge set, deduplication is idempotent).
  EdgeList edges;
  edges.reserve(in_neighbors.size());
  for (int64_t v = 0; v < nv; ++v) {
    for (EdgeId e = in_offsets[v]; e < in_offsets[v + 1]; ++e) {
      edges.emplace_back(in_neighbors[static_cast<size_t>(e)],
                         static_cast<VertexId>(v));
    }
  }
  HT_ASSIGN_OR_RETURN(ds->graph, GraphBuilder().Build(nv, std::move(edges)));

  int64_t rows = 0, cols = 0;
  HT_RETURN_IF_ERROR(ReadSection("feature section", [&]() -> Status {
    HT_ASSIGN_OR_RETURN(rows, r.I64());
    HT_ASSIGN_OR_RETURN(cols, r.I64());
    return Status::OK();
  }));
  if (rows != nv || cols <= 0 || cols > (1 << 20)) {
    return Status::IoError("corrupt feature section");
  }
  // Bounded by the bytes the file holds before the tensor is allocated.
  HT_RETURN_IF_ERROR(ReadSection("feature section", [&] {
    return r.Fits(static_cast<uint64_t>(rows),
                  static_cast<uint64_t>(cols) * sizeof(float));
  }));
  ds->features = Tensor(rows, cols);
  HT_RETURN_IF_ERROR(r.Raw(ds->features.data(),
                           static_cast<size_t>(ds->features.bytes())));

  HT_RETURN_IF_ERROR(ReadSection("label/split section", [&]() -> Status {
    HT_ASSIGN_OR_RETURN(ds->num_classes, r.I32());
    HT_RETURN_IF_ERROR(r.Vec(&ds->labels));
    return r.Vec(&ds->split);
  }));
  if (static_cast<int64_t>(ds->labels.size()) != nv ||
      static_cast<int64_t>(ds->split.size()) != nv) {
    return Status::IoError("corrupt label/split section");
  }
  if (ds->num_classes <= 0 || ds->num_classes > (1 << 24)) {
    return Status::IoError("corrupt class count");
  }
  for (const int32_t y : ds->labels) {
    if (y < 0 || y >= ds->num_classes) {
      return Status::IoError("corrupt label: class id out of range");
    }
  }
  for (const SplitRole role : ds->split) {
    if (static_cast<uint8_t>(role) > 2) {
      return Status::IoError("corrupt split role");
    }
  }
  return ReadSection("metadata section", [&]() -> Status {
    HT_ASSIGN_OR_RETURN(ds->default_hidden_dim, r.I32());
    HT_ASSIGN_OR_RETURN(ds->default_chunks_gcn, r.I32());
    HT_ASSIGN_OR_RETURN(ds->default_chunks_gat, r.I32());
    HT_ASSIGN_OR_RETURN(ds->paper_num_vertices, r.I64());
    HT_ASSIGN_OR_RETURN(ds->paper_num_edges, r.I64());
    HT_ASSIGN_OR_RETURN(ds->paper_feature_dim, r.I32());
    HT_ASSIGN_OR_RETURN(ds->paper_num_classes, r.I32());
    return Status::OK();
  });
}

Status ReadEdgeListTextAttempt(const std::string& path, EdgeList* edges) {
  HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kGraphIo));
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (f == nullptr) return Status::IoError("cannot open " + path);
  edges->clear();
  char line[256];
  int lineno = 0;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++lineno;
    // A line that filled the buffer without its newline would leave the
    // tail to be misparsed as another "edge" — reject instead.
    const size_t len = std::strlen(line);
    if (len + 1 == sizeof(line) && line[len - 1] != '\n') {
      return Status::IoError("overlong line at " + path + ":" +
                             std::to_string(lineno));
    }
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '#' || *p == '%' || *p == '\n' || *p == '\0') continue;
    long long s, d;
    if (std::sscanf(p, "%lld %lld", &s, &d) != 2) {
      return Status::IoError("parse error at " + path + ":" +
                             std::to_string(lineno));
    }
    if (s < 0 || d < 0 ||
        s > std::numeric_limits<VertexId>::max() ||
        d > std::numeric_limits<VertexId>::max()) {
      return Status::IoError("vertex id out of range at " + path + ":" +
                             std::to_string(lineno));
    }
    edges->emplace_back(static_cast<VertexId>(s), static_cast<VertexId>(d));
  }
  if (std::ferror(f.get())) {
    return Status::IoError("read error in " + path);
  }
  return Status::OK();
}

}  // namespace

Result<EdgeList> ReadEdgeListText(const std::string& path) {
  EdgeList edges;
  // Fault site `graph.io`, wholesale retry: re-reading a file is idempotent.
  HT_RETURN_IF_ERROR(fault::RetryTransient(
      fault::DefaultRetryPolicy(), nullptr, "graph.io",
      [&] { return ReadEdgeListTextAttempt(path, &edges); }));
  return edges;
}

Status WriteEdgeListText(const std::string& path, const EdgeList& edges) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return Status::IoError("cannot open " + path);
  for (const auto& [s, d] : edges) {
    if (std::fprintf(f.get(), "%d %d\n", s, d) < 0) {
      return Status::IoError("write failed for " + path);
    }
  }
  return Status::OK();
}

Result<Graph> LoadGraphFromEdgeList(const std::string& path,
                                    int64_t num_vertices,
                                    GraphBuilderOptions opts) {
  HT_ASSIGN_OR_RETURN(EdgeList edges, ReadEdgeListText(path));
  return GraphBuilder(opts).Build(num_vertices, std::move(edges));
}

Status SaveDataset(const std::string& path, const Dataset& ds) {
  HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kGraphIo));
  const std::string image = EncodeDataset(ds);
  return ReplaceFile(path, [&](int fd) {
    return WriteAll(fd, image.data(), image.size());
  });
}

Result<Dataset> LoadDatasetFile(const std::string& path) {
  HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kGraphIo));
  Result<std::string> image = ReadFile(path);
  if (!image.ok()) return Status::IoError(image.status().message());
  // Every failure is kIoError, the graph builder's included.
  Dataset ds;
  const Status st = DecodeDataset(image.ValueOrDie(), &ds);
  if (!st.ok()) return Status::IoError(path + ": " + st.message());
  return ds;
}

}  // namespace hongtu
