// Tests for graph/dataset (de)serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "hongtu/graph/io.h"

namespace hongtu {
namespace {

std::string TmpPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

TEST(EdgeListIo, RoundTrip) {
  const std::string path = TmpPath("ht_edges.txt");
  EdgeList edges = {{0, 1}, {1, 2}, {2, 0}, {3, 1}};
  ASSERT_TRUE(WriteEdgeListText(path, edges).ok());
  auto r = ReadEdgeListText(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie(), edges);
  std::remove(path.c_str());
}

TEST(EdgeListIo, SkipsCommentsAndBlankLines) {
  const std::string path = TmpPath("ht_edges_comments.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# a comment\n\n0 1\n%% another\n 2 3\n");
  std::fclose(f);
  auto r = ReadEdgeListText(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().size(), 2u);
  EXPECT_EQ(r.ValueOrDie()[1], (std::pair<VertexId, VertexId>{2, 3}));
  std::remove(path.c_str());
}

TEST(EdgeListIo, ParseErrorHasLineNumber) {
  const std::string path = TmpPath("ht_edges_bad.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "0 1\nnot an edge\n");
  std::fclose(f);
  auto r = ReadEdgeListText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EdgeListIo, MissingFileFails) {
  EXPECT_EQ(ReadEdgeListText("/nonexistent/xyz.txt").status().code(),
            StatusCode::kIoError);
}

TEST(EdgeListIo, LoadGraphBuildsWithSelfLoops) {
  const std::string path = TmpPath("ht_edges_graph.txt");
  ASSERT_TRUE(WriteEdgeListText(path, {{0, 1}, {1, 2}}).ok());
  auto g = LoadGraphFromEdgeList(path, 3);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.ValueOrDie().num_edges(), 5);  // 2 edges + 3 self-loops
  std::remove(path.c_str());
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  auto dsr = LoadDatasetScaled("reddit", 0.1);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  const std::string path = TmpPath("ht_dataset.htds");
  ASSERT_TRUE(SaveDataset(path, ds).ok());

  auto back = LoadDatasetFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Dataset& ds2 = back.ValueOrDie();
  EXPECT_EQ(ds2.name, ds.name);
  EXPECT_EQ(ds2.graph.num_vertices(), ds.graph.num_vertices());
  EXPECT_EQ(ds2.graph.num_edges(), ds.graph.num_edges());
  EXPECT_EQ(ds2.graph.in_neighbors(), ds.graph.in_neighbors());
  EXPECT_EQ(ds2.graph.in_weights(), ds.graph.in_weights());
  EXPECT_EQ(Tensor::MaxAbsDiff(ds2.features, ds.features), 0.0);
  EXPECT_EQ(ds2.labels, ds.labels);
  EXPECT_EQ(ds2.split, ds.split);
  EXPECT_EQ(ds2.num_classes, ds.num_classes);
  EXPECT_EQ(ds2.paper_num_vertices, ds.paper_num_vertices);
  EXPECT_EQ(ds2.default_chunks_gat, ds.default_chunks_gat);
  std::remove(path.c_str());
}

TEST(DatasetIo, RejectsWrongMagic) {
  const std::string path = TmpPath("ht_not_a_dataset.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "garbage that is long enough to read a header from");
  std::fclose(f);
  auto r = LoadDatasetFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(EdgeListIo, RejectsOverlongLine) {
  const std::string path = TmpPath("ht_edges_overlong.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "0 1\n1 ");
  for (int i = 0; i < 400; ++i) std::fputc('2', f);
  std::fprintf(f, "\n");
  std::fclose(f);
  auto r = ReadEdgeListText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("overlong"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(EdgeListIo, RejectsOutOfRangeVertexId) {
  const std::string path = TmpPath("ht_edges_range.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // 2^40 does not fit VertexId (int32); silently truncating it would wire
  // the edge to an arbitrary vertex.
  std::fprintf(f, "0 1\n1099511627776 1\n");
  std::fclose(f);
  auto r = ReadEdgeListText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
  std::remove(path.c_str());
}

// ---- Corrupted .htds fixtures. ---------------------------------------------
// The on-disk layout (see SaveDataset) is deterministic, so specific fields
// can be patched byte-precisely: magic(4) version(4) name(8+len) nv(8)
// in_offsets(8 + (nv+1)*8) in_neighbors(8 + E*4) ...

class CorruptDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dsr = LoadDatasetScaled("reddit", 0.05);
    ASSERT_TRUE(dsr.ok());
    ds_ = dsr.MoveValueUnsafe();
    path_ = TmpPath("ht_corrupt.htds");
    ASSERT_TRUE(SaveDataset(path_, ds_).ok());
    name_end_ = 8 + 8 + static_cast<int64_t>(ds_.name.size());
    offsets_len_pos_ = name_end_ + 8;
    offsets_data_pos_ = offsets_len_pos_ + 8;
    neighbors_len_pos_ =
        offsets_data_pos_ + (ds_.graph.num_vertices() + 1) * 8;
    neighbors_data_pos_ = neighbors_len_pos_ + 8;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void PatchBytes(int64_t pos, const void* data, size_t n) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(pos), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(data, 1, n, f), n);
    std::fclose(f);
  }

  void ExpectLoadFailsWith(const std::string& needle) {
    auto r = LoadDatasetFile(path_);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    EXPECT_NE(r.status().message().find(needle), std::string::npos)
        << r.status().ToString();
  }

  Dataset ds_;
  std::string path_;
  int64_t name_end_ = 0;
  int64_t offsets_len_pos_ = 0;
  int64_t offsets_data_pos_ = 0;
  int64_t neighbors_len_pos_ = 0;
  int64_t neighbors_data_pos_ = 0;
};

TEST_F(CorruptDatasetTest, HugeVectorLengthRejectedWithoutAllocating) {
  // A corrupted length field must be caught by the remaining-bytes bound,
  // not by an attempted petabyte resize().
  const int64_t huge = 1ll << 50;
  PatchBytes(offsets_len_pos_, &huge, sizeof(huge));
  ExpectLoadFailsWith("corrupt graph section: truncated");
}

TEST_F(CorruptDatasetTest, HugeStringLengthRejected) {
  const int64_t huge = 1ll << 40;
  PatchBytes(8, &huge, sizeof(huge));
  ExpectLoadFailsWith("corrupt header: truncated");
}

TEST_F(CorruptDatasetTest, NonMonotoneOffsetsRejected) {
  // in_offsets[1] jumping past in_offsets.back() breaks monotonicity (or the
  // bounds check, depending on the stored edge count) — either way the load
  // must refuse before indexing neighbors with it.
  const EdgeId garbage = ds_.graph.num_edges() + 1000000;
  PatchBytes(offsets_data_pos_ + 8, &garbage, sizeof(garbage));
  ExpectLoadFailsWith("corrupt graph section");
}

TEST_F(CorruptDatasetTest, OutOfRangeNeighborRejected) {
  const VertexId garbage = std::numeric_limits<VertexId>::max();
  PatchBytes(neighbors_data_pos_, &garbage, sizeof(garbage));
  ExpectLoadFailsWith("neighbor id out of range");
}

TEST_F(CorruptDatasetTest, OutOfRangeLabelRejected) {
  // labels live after the feature block: rows(8) cols(8) rows*cols*4
  // floats, then num_classes(4), then the label vector length(8).
  const int64_t neighbors_end =
      neighbors_data_pos_ + ds_.graph.num_edges() * 4;
  const int64_t labels_data_pos = neighbors_end + 8 + 8 +
                                  ds_.features.rows() * ds_.features.cols() *
                                      4 +
                                  4 + 8;
  const int32_t garbage = -5;
  PatchBytes(labels_data_pos, &garbage, sizeof(garbage));
  ExpectLoadFailsWith("class id out of range");
}

TEST(DatasetIo, HostileFeatureShapeFailsBeforeAllocating) {
  // 64 vertices, no edges, and a claimed 64 x 2^20 feature block (256 MiB)
  // in a 577-byte file: the shape must be bounded by the bytes the file
  // holds before the feature tensor is allocated.
  std::string bytes = "HTDS";
  auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(uint32_t{1});      // version
  put(int64_t{1});       // name length
  bytes += "x";          // name
  put(int64_t{64});      // |V|
  put(int64_t{65});      // in_offsets count
  for (int i = 0; i < 65; ++i) put(int64_t{0});
  put(int64_t{0});       // in_neighbors count
  put(int64_t{64});      // feature rows
  put(int64_t{1} << 20);  // feature cols; no feature bytes follow
  ASSERT_EQ(bytes.size(), 577u);
  const std::string path = TmpPath("ht_hostile_features.htds");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  auto r = LoadDatasetFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("feature section"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(DatasetIo, RejectsTruncatedFile) {
  auto dsr = LoadDatasetScaled("reddit", 0.05);
  ASSERT_TRUE(dsr.ok());
  const std::string path = TmpPath("ht_truncated.htds");
  ASSERT_TRUE(SaveDataset(path, dsr.ValueOrDie()).ok());
  // Truncate to the first 100 bytes.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[100];
  ASSERT_EQ(std::fread(buf, 1, sizeof(buf), f), sizeof(buf));
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(buf, 1, sizeof(buf), f), sizeof(buf));
  std::fclose(f);
  EXPECT_EQ(LoadDatasetFile(path).status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hongtu
