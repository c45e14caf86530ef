// Format tests for every binary encoding the library writes: the HTCK
// checkpoint, the HTJL cluster journal, the HTDS dataset file and the
// cluster frame header.
//
// - Format pins: golden CRC32C words of each encoder's output for a fixed
//   input. A changed word is a changed on-disk or wire byte: old files and
//   peers would no longer read.
// - Prefix sweep: every proper prefix of a valid encoding must decode to a
//   non-OK Status without crashing (the journal instead replays a prefix of
//   its records: a cut journal is a crash tail, not damage).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "hongtu/common/crc32c.h"
#include "hongtu/engine/checkpoint.h"
#include "hongtu/graph/io.h"
#include "hongtu/net/frame.h"
#include "hongtu/net/journal.h"

namespace hongtu {
namespace {

std::string TmpDir() {
  char buf[] = "/tmp/hongtu_format_test_XXXXXX";
  const char* d = mkdtemp(buf);
  EXPECT_NE(d, nullptr);
  return d != nullptr ? std::string(d) : std::string("/tmp");
}

std::string Slurp(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void Spit(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

uint32_t CrcOf(const std::string& bytes) {
  return Crc32c(bytes.data(), bytes.size());
}

// ---- Fixed inputs -----------------------------------------------------------

/// A fixed-seed, untrained 2-layer GCN and its (all-zero) Adam state.
struct PinModel {
  GnnModel model;
  Adam adam;
  PinModel() {
    auto m = GnnModel::Create(
        ModelConfig::Make(GnnKind::kGcn, 8, 16, 4, 2, /*seed=*/1234));
    EXPECT_TRUE(m.ok());
    model = m.MoveValueUnsafe();
    for (Tensor* p : model.AllParams()) adam.Register(p);
  }
};

/// The checkpoint bytes of PinModel at epoch 7.
std::string PinCheckpoint(const std::string& dir) {
  PinModel pm;
  const std::string path = dir + "/pin.htck";
  EXPECT_TRUE(SaveCheckpoint(path, &pm.model, pm.adam, 7).ok());
  std::string bytes = Slurp(path);
  std::remove(path.c_str());
  return bytes;
}

net::JournalRecord Record(net::JournalRecordType t, std::string payload) {
  net::JournalRecord r;
  r.type = t;
  r.payload = std::move(payload);
  return r;
}

std::vector<net::JournalRecord> PinRecords() {
  return {
      Record(net::JournalRecordType::kTerm, std::string("\x03\0\0\0\0\0\0\0", 8)),
      Record(net::JournalRecordType::kMember, "member payload"),
      Record(net::JournalRecordType::kRunStart, std::string(20, '\x11')),
      Record(net::JournalRecordType::kDoneReport, ""),
      Record(net::JournalRecordType::kApplied, "applied: /ck/epoch2"),
  };
}

/// The journal bytes after compacting to PinRecords().
std::string PinJournal(const std::string& dir) {
  const std::string path = dir + "/pin.journal";
  {
    auto j = net::ClusterJournal::Open(path);
    EXPECT_TRUE(j.ok()) << j.status().ToString();
    EXPECT_TRUE(j.ValueOrDie()->Compact(PinRecords()).ok());
  }
  std::string bytes = Slurp(path);
  std::remove(path.c_str());
  return bytes;
}

/// A four-vertex ring with integer-valued features and every split role.
Dataset PinDataset() {
  Dataset ds;
  ds.name = "pin";
  auto g = GraphBuilder().Build(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_TRUE(g.ok());
  ds.graph = g.MoveValueUnsafe();
  ds.features = Tensor(4, 3);
  for (int64_t i = 0; i < ds.features.size(); ++i) {
    ds.features.data()[i] = 0.5f * static_cast<float>(i);
  }
  ds.labels = {0, 1, 0, 1};
  ds.num_classes = 2;
  ds.split = {SplitRole::kTrain, SplitRole::kVal, SplitRole::kTest,
              SplitRole::kTrain};
  ds.default_hidden_dim = 16;
  ds.default_chunks_gcn = 2;
  ds.default_chunks_gat = 3;
  ds.paper_num_vertices = 232965;
  ds.paper_num_edges = 114615892;
  ds.paper_feature_dim = 602;
  ds.paper_num_classes = 41;
  return ds;
}

std::string PinDatasetBytes(const std::string& dir) {
  const std::string path = dir + "/pin.htds";
  EXPECT_TRUE(SaveDataset(path, PinDataset()).ok());
  std::string bytes = Slurp(path);
  std::remove(path.c_str());
  return bytes;
}

/// The 40 header bytes WriteFrame puts on the wire for a fixed frame.
std::string PinFrameHeader() {
  int fds[2];
  EXPECT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  net::Frame f;
  f.type = net::MsgType::kGradPush;
  f.flags = net::kFlagResponse;
  f.src_rank = 3;
  f.seq = 0x01020304u;
  f.term = 0x1122334455667788ull;
  EXPECT_TRUE(net::WriteFrame(fds[0], f, 1.0).ok());
  std::string hdr(net::kFrameHeaderBytes, '\0');
  EXPECT_TRUE(net::ReadFull(fds[1], &hdr[0], hdr.size(), 1.0).ok());
  close(fds[0]);
  close(fds[1]);
  return hdr;
}

// ---- Format pins ------------------------------------------------------------

TEST(FormatPins, CheckpointBytes) {
  const std::string dir = TmpDir();
  const std::string bytes = PinCheckpoint(dir);
  EXPECT_EQ(bytes.size(), 2992u);
  EXPECT_EQ(CrcOf(bytes), 0xd8a6803cu);
  rmdir(dir.c_str());
}

TEST(FormatPins, CompactedJournalBytes) {
  const std::string dir = TmpDir();
  const std::string bytes = PinJournal(dir);
  EXPECT_EQ(bytes.size(), 149u);
  EXPECT_EQ(CrcOf(bytes), 0x6a4f13d2u);
  rmdir(dir.c_str());
}

TEST(FormatPins, DatasetBytes) {
  const std::string dir = TmpDir();
  const std::string bytes = PinDatasetBytes(dir);
  EXPECT_EQ(bytes.size(), 255u);
  EXPECT_EQ(CrcOf(bytes), 0x21866c8cu);
  rmdir(dir.c_str());
}

TEST(FormatPins, FrameHeaderBytes) {
  const std::string hdr = PinFrameHeader();
  EXPECT_EQ(CrcOf(hdr), 0x48674bc7u);
}

// ---- Prefix sweep -----------------------------------------------------------

/// One format under the sweep: its encoder's output, and the decode of a
/// file or buffer holding `bytes`.
struct Format {
  const char* name;
  std::string (*encode)(const std::string& dir);
  Status (*decode)(const std::string& dir, const std::string& bytes);
};

Status DecodeCheckpoint(const std::string& dir, const std::string& bytes) {
  const std::string path = dir + "/sweep.htck";
  Spit(path, bytes);
  PinModel pm;
  int64_t epoch = -1;
  const Status st = RestoreCheckpoint(path, &pm.model, &pm.adam, &epoch);
  std::remove(path.c_str());
  if (st.ok() && epoch != 7) return Status::Internal("wrong epoch restored");
  return st;
}

Status DecodeDataset(const std::string& dir, const std::string& bytes) {
  const std::string path = dir + "/sweep.htds";
  Spit(path, bytes);
  const Result<Dataset> r = LoadDatasetFile(path);
  std::remove(path.c_str());
  // Every dataset-file failure is kIoError.
  if (!r.ok() && r.status().code() != StatusCode::kIoError) {
    return Status::Internal("wrong code: " + r.status().ToString());
  }
  return r.status();
}

std::string EncodeFrameHeaderPin(const std::string&) {
  return PinFrameHeader();
}

Status DecodeFrameHeaderPin(const std::string&, const std::string& bytes) {
  net::FrameHeader h;
  return net::DecodeFrameHeader(bytes.data(), bytes.size(), &h);
}

class PrefixSweep : public ::testing::TestWithParam<Format> {};

TEST_P(PrefixSweep, EveryProperPrefixIsRejected) {
  const Format& fmt = GetParam();
  const std::string dir = TmpDir();
  const std::string bytes = fmt.encode(dir);
  ASSERT_FALSE(bytes.empty());
  const Status whole = fmt.decode(dir, bytes);
  EXPECT_TRUE(whole.ok()) << whole.ToString();
  for (size_t n = 0; n < bytes.size(); ++n) {
    const Status st = fmt.decode(dir, bytes.substr(0, n));
    EXPECT_FALSE(st.ok()) << fmt.name << " prefix of " << n << " bytes";
    EXPECT_NE(st.code(), StatusCode::kInternal) << st.ToString();
  }
  rmdir(dir.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Decoders, PrefixSweep,
    ::testing::Values(Format{"checkpoint", PinCheckpoint, DecodeCheckpoint},
                      Format{"dataset", PinDatasetBytes, DecodeDataset},
                      Format{"frame_header", EncodeFrameHeaderPin,
                             DecodeFrameHeaderPin}),
    [](const ::testing::TestParamInfo<Format>& info) {
      return std::string(info.param.name);
    });

// A cut journal is a crash tail: every prefix that keeps the 8-byte header
// replays, without error, exactly the records it holds whole; a shorter
// one is header damage (kDataLoss).
TEST(PrefixSweepJournal, EveryPrefixReplaysAPrefixOfItsRecords) {
  const std::string dir = TmpDir();
  const std::string path = dir + "/sweep.journal";
  const std::string bytes = PinJournal(dir);
  const std::vector<net::JournalRecord> want = PinRecords();
  size_t last = 0;
  for (size_t n = 0; n <= bytes.size(); ++n) {
    Spit(path, bytes.substr(0, n));
    const auto r = net::ClusterJournal::Replay(path);
    if (n < 8) {
      EXPECT_TRUE(r.status().IsDataLoss()) << n << ": " << r.status().ToString();
      continue;
    }
    ASSERT_TRUE(r.ok()) << n << ": " << r.status().ToString();
    const std::vector<net::JournalRecord>& got = r.ValueOrDie();
    ASSERT_LE(got.size(), want.size());
    ASSERT_GE(got.size(), last) << "a longer prefix lost a record at " << n;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, want[i].type) << n << " record " << i;
      EXPECT_EQ(got[i].payload, want[i].payload) << n << " record " << i;
    }
    last = got.size();
  }
  EXPECT_EQ(last, want.size());
  std::remove(path.c_str());
  rmdir(dir.c_str());
}

}  // namespace
}  // namespace hongtu
