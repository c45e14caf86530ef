// Cluster-transport tests: frame round-trips and integrity, partial-read /
// EINTR reassembly, deadlines, the request/response transport with
// reconnect, heartbeat-declared death, the cluster-config codec, and the
// real multi-process cluster backend (2- and 4-worker loopback matrix with
// injected net.* faults and a SIGKILL drill, all required to converge to
// bitwise-identical final weights).
//
// This file has its own main(): the multi-process cases re-exec the test
// binary as cluster workers, so net::MaybeRunClusterWorker() must run
// before gtest does anything (CMakeLists links this target against
// GTest::gtest rather than GTest::gtest_main).

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hongtu/common/crc32c.h"
#include "hongtu/common/fault.h"
#include "hongtu/common/wire.h"
#include "hongtu/engine/hongtu_engine.h"
#include "hongtu/graph/datasets.h"
#include "hongtu/net/cluster.h"
#include "hongtu/net/frame.h"
#include "hongtu/net/journal.h"
#include "hongtu/net/socket.h"
#include "hongtu/net/transport.h"
#include "hongtu/tensor/adam.h"

namespace hongtu {
namespace {

using net::Frame;
using net::MsgType;

// Every test must leave the fault registry disarmed; a leaked arming would
// poison unrelated tests in the same process.
class NetTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) close(a);
    if (b >= 0) close(b);
  }
};

Frame MakeFrame(MsgType type, uint32_t seq, std::string payload) {
  Frame f;
  f.type = type;
  f.src_rank = 3;
  f.seq = seq;
  f.payload = std::move(payload);
  return f;
}

// ---- Framing ---------------------------------------------------------------

TEST_F(NetTest, FrameRoundTrip) {
  SocketPair sp;
  for (size_t n : {size_t(0), size_t(1), size_t(1000), size_t(100000)}) {
    std::string payload(n, 'x');
    for (size_t i = 0; i < n; ++i) payload[i] = static_cast<char>(i * 31);
    ASSERT_TRUE(net::WriteFrame(sp.a, MakeFrame(MsgType::kAck, 7, payload),
                                5.0).ok());
    Frame got;
    bool dropped = true;
    ASSERT_TRUE(net::ReadFrame(sp.b, &got, 5.0, &dropped).ok());
    EXPECT_FALSE(dropped);
    EXPECT_EQ(MsgType::kAck, got.type);
    EXPECT_EQ(3, got.src_rank);
    EXPECT_EQ(7u, got.seq);
    EXPECT_EQ(payload, got.payload);
  }
}

TEST_F(NetTest, ResponseFlagSurvivesTheWire) {
  SocketPair sp;
  Frame f = MakeFrame(MsgType::kError, 9, "boom");
  f.flags = net::kFlagResponse;
  ASSERT_TRUE(net::WriteFrame(sp.a, f, 5.0).ok());
  Frame got;
  bool dropped = false;
  ASSERT_TRUE(net::ReadFrame(sp.b, &got, 5.0, &dropped).ok());
  EXPECT_TRUE(got.is_response());
}

TEST_F(NetTest, CorruptPayloadDetectedAsDataLoss) {
  SocketPair sp;
  // Corrupt after the CRC is computed: the receiver must detect it and keep
  // the stream framed (type/seq stay readable for an in-band error reply).
  fault::SiteSpec spec;
  spec.kind = fault::Kind::kCorrupt;
  spec.prob = 1.0;
  spec.max_count = 1;
  ASSERT_TRUE(fault::Arm(fault::Site::kNetSend, spec).ok());
  ASSERT_TRUE(
      net::WriteFrame(sp.a, MakeFrame(MsgType::kFetchRows, 21, "rowdata"),
                      5.0).ok());
  Frame got;
  bool dropped = false;
  const Status st = net::ReadFrame(sp.b, &got, 5.0, &dropped);
  ASSERT_TRUE(st.IsDataLoss()) << st.ToString();
  EXPECT_EQ(MsgType::kFetchRows, got.type);
  EXPECT_EQ(21u, got.seq);
}

TEST_F(NetTest, DribbledBytesAndEintrReassemble) {
  // Capture one frame's wire bytes.
  std::string wire;
  {
    SocketPair cap;
    ASSERT_TRUE(
        net::WriteFrame(cap.a, MakeFrame(MsgType::kEpoch, 5, "partial-read"),
                        5.0).ok());
    wire.resize(net::kFrameHeaderBytes + 12);
    ASSERT_EQ(static_cast<ssize_t>(wire.size()),
              read(cap.b, &wire[0], wire.size()));
  }
  // Replay them one byte at a time while peppering the reader with SIGUSR1
  // (handler installed without SA_RESTART, so poll/read see real EINTR).
  struct sigaction sa = {};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;
  struct sigaction old;
  ASSERT_EQ(0, sigaction(SIGUSR1, &sa, &old));
  SocketPair sp;
  pthread_t reader = pthread_self();
  std::thread writer([&] {
    for (size_t i = 0; i < wire.size(); ++i) {
      ASSERT_EQ(1, write(sp.a, &wire[i], 1));
      if (i % 3 == 0) pthread_kill(reader, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  Frame got;
  bool dropped = false;
  const Status st = net::ReadFrame(sp.b, &got, 10.0, &dropped);
  writer.join();
  sigaction(SIGUSR1, &old, nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(MsgType::kEpoch, got.type);
  EXPECT_EQ("partial-read", got.payload);
}

TEST_F(NetTest, ReadDeadlineExpiresAsUnavailable) {
  SocketPair sp;
  Frame got;
  bool dropped = false;
  const double t0 = net::MonotonicSeconds();
  const Status st = net::ReadFrame(sp.b, &got, 0.1, &dropped);
  EXPECT_TRUE(st.code() == StatusCode::kUnavailable) << st.ToString();
  EXPECT_LT(net::MonotonicSeconds() - t0, 2.0);
}

TEST_F(NetTest, PeerCloseIsUnavailable) {
  SocketPair sp;
  close(sp.a);
  sp.a = -1;
  Frame got;
  bool dropped = false;
  EXPECT_TRUE(net::ReadFrame(sp.b, &got, 1.0, &dropped).code() ==
              StatusCode::kUnavailable);
}

// Serializes a raw 40-byte header (little-endian x86 field order) with a
// valid header CRC, for malformed-header tests.
std::string RawHeader(uint32_t magic, uint64_t payload_len) {
  std::string h(net::kFrameHeaderBytes, '\0');
  char* p = &h[0];
  auto put = [&p](const void* v, size_t n) {
    std::memcpy(p, v, n);
    p += n;
  };
  uint16_t type = 12, flags = 0;
  uint32_t src = 0, seq = 1, payload_crc = 0;
  uint64_t term = 0;
  put(&magic, 4);
  put(&type, 2);
  put(&flags, 2);
  put(&src, 4);
  put(&seq, 4);
  put(&term, 8);
  put(&payload_len, 8);
  put(&payload_crc, 4);
  const uint32_t hcrc = Crc32c(h.data(), 36);
  put(&hcrc, 4);
  return h;
}

TEST_F(NetTest, OversizePayloadIsStreamDesync) {
  SocketPair sp;
  const std::string h = RawHeader(net::kFrameMagic, net::kMaxPayloadBytes + 1);
  ASSERT_EQ(static_cast<ssize_t>(h.size()), write(sp.a, h.data(), h.size()));
  Frame got;
  bool dropped = false;
  EXPECT_FALSE(net::ReadFrame(sp.b, &got, 1.0, &dropped).ok());
}

TEST_F(NetTest, BadMagicIsStreamDesync) {
  SocketPair sp;
  const std::string h = RawHeader(0xdeadbeefu, 0);
  ASSERT_EQ(static_cast<ssize_t>(h.size()), write(sp.a, h.data(), h.size()));
  Frame got;
  bool dropped = false;
  EXPECT_FALSE(net::ReadFrame(sp.b, &got, 1.0, &dropped).ok());
}

// ---- Sockets ---------------------------------------------------------------

TEST_F(NetTest, ParseAddr) {
  auto tcp = net::ParseAddr("tcp:127.0.0.1:4817");
  ASSERT_TRUE(tcp.ok());
  EXPECT_FALSE(tcp.ValueOrDie().uds);
  EXPECT_EQ("127.0.0.1", tcp.ValueOrDie().host);
  EXPECT_EQ(4817, tcp.ValueOrDie().port);
  auto uds = net::ParseAddr("uds:/tmp/x.sock");
  ASSERT_TRUE(uds.ok());
  EXPECT_TRUE(uds.ValueOrDie().uds);
  EXPECT_EQ("/tmp/x.sock", uds.ValueOrDie().path);
  EXPECT_FALSE(net::ParseAddr("smoke-signal:hill-7").ok());
}

TEST_F(NetTest, TcpListenConnectAccept) {
  std::string bound;
  auto lr = net::ListenOn("tcp:127.0.0.1:0", &bound);
  ASSERT_TRUE(lr.ok()) << lr.status().ToString();
  EXPECT_NE(bound, "tcp:127.0.0.1:0");  // kernel resolved the port
  auto cr = net::ConnectTo(bound, 2.0);
  ASSERT_TRUE(cr.ok()) << cr.status().ToString();
  auto ar = net::AcceptOn(lr.ValueOrDie(), 2.0);
  ASSERT_TRUE(ar.ok()) << ar.status().ToString();
  close(cr.ValueOrDie());
  close(ar.ValueOrDie());
  close(lr.ValueOrDie());
}

TEST_F(NetTest, ConnectRefusedIsUnavailable) {
  // Port 1 on loopback: nothing listens there in any sane environment.
  auto r = net::ConnectTo("tcp:127.0.0.1:1", 1.0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().code() == StatusCode::kUnavailable) << r.status().ToString();
}

// ---- Transport -------------------------------------------------------------

char TempDirTemplate[] = "/tmp/hongtu-nettest.XXXXXX";

class TransportPair {
 public:
  explicit TransportPair(double peer_timeout_s = 2.0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s", TempDirTemplate);
    dir_ = mkdtemp(buf);
    EXPECT_TRUE(dir_ != nullptr);
    dir_str_ = dir_ ? dir_ : "/tmp";
    net::Transport::Options oa;
    oa.rank = 0;
    oa.peer_timeout_s = peer_timeout_s;
    oa.heartbeat_interval_s = 0.05;
    net::Transport::Options ob = oa;
    ob.rank = 1;
    a = std::make_unique<net::Transport>(oa);
    b = std::make_unique<net::Transport>(ob);
  }
  ~TransportPair() {
    a->Shutdown();
    b->Shutdown();
    rmdir(dir_str_.c_str());
  }
  void Listen() {
    ASSERT_TRUE(a->Listen("uds:" + dir_str_ + "/a.sock").ok());
    ASSERT_TRUE(b->Listen("uds:" + dir_str_ + "/b.sock").ok());
    a->SetPeer(1, b->bound_addr());
    b->SetPeer(0, a->bound_addr());
  }
  std::unique_ptr<net::Transport> a, b;

 private:
  char* dir_ = nullptr;
  std::string dir_str_;
};

TEST_F(NetTest, CallRoundTripAndBigPayload) {
  TransportPair tp;
  tp.b->set_handler([](net::Transport::Request&& req) {
    std::string echoed(req.frame.payload.rbegin(), req.frame.payload.rend());
    req.reply(MsgType::kAck, std::move(echoed));
  });
  tp.Listen();
  auto r = tp.a->Call(1, MsgType::kFetchRows, "abc", 5.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ("cba", r.ValueOrDie());
  std::string big(1 << 20, 'q');
  auto r2 = tp.a->Call(1, MsgType::kFetchRows, big, 10.0);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(big.size(), r2.ValueOrDie().size());
}

TEST_F(NetTest, ErrorReplyPropagatesStatus) {
  TransportPair tp;
  tp.b->set_handler([](net::Transport::Request&& req) {
    req.reply_error(Status::NotFound("no such step"));
  });
  tp.Listen();
  auto r = tp.a->Call(1, MsgType::kFetchRows, "x", 5.0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
}

TEST_F(NetTest, CallDeadlineExpiryIsUnavailable) {
  TransportPair tp;
  tp.b->set_handler([](net::Transport::Request&&) {
    // Never reply: the caller's deadline machinery must give up.
  });
  tp.Listen();
  const double t0 = net::MonotonicSeconds();
  auto r = tp.a->Call(1, MsgType::kFetchRows, "x", 0.3);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().code() == StatusCode::kUnavailable) << r.status().ToString();
  EXPECT_LT(net::MonotonicSeconds() - t0, 3.0);
}

TEST_F(NetTest, FailPeerCancelsBlockedCallUntilSetPeer) {
  TransportPair tp;
  std::atomic<bool> answer{false};
  tp.b->set_handler([&](net::Transport::Request&& req) {
    // Silent until told otherwise: the caller blocks on its deadline.
    if (answer.load()) req.reply(MsgType::kAck, "ok");
  });
  tp.Listen();
  std::atomic<double> returned_after{-1.0};
  Status st;
  std::thread caller([&] {
    const double t0 = net::MonotonicSeconds();
    st = tp.a->Call(1, MsgType::kPeerUpdate, "x", 10.0).status();
    returned_after.store(net::MonotonicSeconds() - t0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  tp.a->FailPeer(1);
  caller.join();
  EXPECT_EQ(StatusCode::kUnavailable, st.code()) << st.ToString();
  EXPECT_LT(returned_after.load(), 1.0);
  // Later calls fail at once too, until the address is set again.
  const double t1 = net::MonotonicSeconds();
  EXPECT_FALSE(tp.a->Call(1, MsgType::kPeerUpdate, "x", 10.0).ok());
  EXPECT_LT(net::MonotonicSeconds() - t1, 1.0);
  answer.store(true);
  tp.a->SetPeer(1, tp.b->bound_addr());
  auto r = tp.a->Call(1, MsgType::kPeerUpdate, "x", 5.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ("ok", r.ValueOrDie());
}

TEST_F(NetTest, CallUnknownPeerIsInvalid) {
  TransportPair tp;
  tp.Listen();
  auto r = tp.a->Call(6, MsgType::kAck, "", 0.5);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
}

TEST_F(NetTest, ReconnectAfterDroppedConnection) {
  TransportPair tp;
  std::atomic<int> served{0};
  tp.b->set_handler([&](net::Transport::Request&& req) {
    served.fetch_add(1);
    req.reply(MsgType::kAck, "ok");
  });
  tp.Listen();
  ASSERT_TRUE(tp.a->Call(1, MsgType::kAck, "", 5.0).ok());
  // Sever the cached connection; the next Call must redial transparently.
  tp.a->DropConnection(1);
  ASSERT_TRUE(tp.a->Call(1, MsgType::kAck, "", 5.0).ok());
  EXPECT_EQ(2, served.load());
}

TEST_F(NetTest, DroppedRequestFrameThenRecovery) {
  TransportPair tp;
  tp.b->set_handler([](net::Transport::Request&& req) {
    req.reply(MsgType::kAck, "ok");
  });
  tp.Listen();
  ASSERT_TRUE(tp.a->Call(1, MsgType::kAck, "", 5.0).ok());
  // The very next frame written anywhere in this process is A's request:
  // inject its loss. The Call sees only silence and must time out as
  // kUnavailable (exactly what RetryTransient retries)...
  fault::SiteSpec spec;
  spec.kind = fault::Kind::kDrop;
  spec.prob = 1.0;
  spec.max_count = 1;
  ASSERT_TRUE(fault::Arm(fault::Site::kNetSend, spec).ok());
  auto r = tp.a->Call(1, MsgType::kAck, "", 0.4);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().code() == StatusCode::kUnavailable) << r.status().ToString();
  // ...and the retry (a fresh Call) succeeds.
  auto r2 = tp.a->Call(1, MsgType::kAck, "", 5.0);
  EXPECT_TRUE(r2.ok()) << r2.status().ToString();
}

TEST_F(NetTest, SilentPeerDeclaredDead) {
  TransportPair tp(/*peer_timeout_s=*/0.3);
  tp.Listen();
  std::mutex mu;
  std::condition_variable cv;
  int dead_rank = -1;
  tp.a->set_death_callback([&](int rank, const std::string&, uint64_t) {
    std::lock_guard<std::mutex> lk(mu);
    dead_rank = rank;
    cv.notify_all();
  });
  tp.a->WatchPeer(1);  // rank 1 never sends anything
  std::unique_lock<std::mutex> lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5),
                          [&] { return dead_rank != -1; }));
  EXPECT_EQ(1, dead_rank);
}

TEST_F(NetTest, HeartbeatKeepsPeerAliveThenEofReportsDeath) {
  TransportPair tp(/*peer_timeout_s=*/0.4);
  tp.Listen();
  std::mutex mu;
  std::condition_variable cv;
  int dead_rank = -1;
  std::string why;
  tp.a->set_death_callback([&](int rank, const std::string& w, uint64_t) {
    std::lock_guard<std::mutex> lk(mu);
    dead_rank = rank;
    why = w;
    cv.notify_all();
  });
  tp.b->StartHeartbeatTo(0);
  // Let a heartbeat land before arming the watch, then survive several
  // timeout periods on heartbeats alone.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  tp.a->WatchPeer(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(-1, dead_rank) << why;
  }
  EXPECT_LT(tp.a->SecondsSinceContact(1), 0.4);
  // Kill the peer: its connections EOF and death must be reported (the
  // fast path — well before another timeout's worth of waiting).
  tp.b->Shutdown();
  std::unique_lock<std::mutex> lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5),
                          [&] { return dead_rank != -1; }));
  EXPECT_EQ(1, dead_rank);
}

// ---- Cluster-config codec --------------------------------------------------

TEST_F(NetTest, ClusterConfigRoundTripsBitExact) {
  net::ClusterConfig c;
  c.transport = "tcp";
  c.num_workers = 3;
  c.dataset = "reddit";
  c.dataset_scale = 0.1234567890123;  // must survive bit-exact
  c.dataset_seed = 777;
  c.model_kind = GnnKind::kGat;
  c.model_dims = {602, 32, 41};
  c.model_seed = 2024;
  c.chunks_per_partition = 5;
  c.dedup_level = 1;
  c.reorganize = false;
  c.partition_seed = 99;
  c.wire = kernels::CommPrecision::kBf16;
  c.adam.lr = 0.00317;
  c.runtime_dir = "/tmp/ht.d";
  c.checkpoint_dir = "/tmp/ht.ck";
  c.peer_timeout_s = 0.75;
  c.rpc_deadline_s = 3.5;
  auto dr = net::DecodeClusterConfig(net::EncodeClusterConfig(c));
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  const net::ClusterConfig& d = dr.ValueOrDie();
  EXPECT_EQ(c.transport, d.transport);
  EXPECT_EQ(c.num_workers, d.num_workers);
  EXPECT_EQ(c.dataset, d.dataset);
  EXPECT_EQ(0, std::memcmp(&c.dataset_scale, &d.dataset_scale, 8));
  EXPECT_EQ(c.dataset_seed, d.dataset_seed);
  EXPECT_EQ(c.model_kind, d.model_kind);
  EXPECT_EQ(c.model_dims, d.model_dims);
  EXPECT_EQ(c.model_seed, d.model_seed);
  EXPECT_EQ(c.chunks_per_partition, d.chunks_per_partition);
  EXPECT_EQ(c.dedup_level, d.dedup_level);
  EXPECT_EQ(c.reorganize, d.reorganize);
  EXPECT_EQ(c.partition_seed, d.partition_seed);
  EXPECT_EQ(c.wire, d.wire);
  EXPECT_EQ(0, std::memcmp(&c.adam.lr, &d.adam.lr, sizeof(float)));
  EXPECT_EQ(c.runtime_dir, d.runtime_dir);
  EXPECT_EQ(c.checkpoint_dir, d.checkpoint_dir);
  EXPECT_EQ(0, std::memcmp(&c.peer_timeout_s, &d.peer_timeout_s, 8));
  EXPECT_EQ(0, std::memcmp(&c.rpc_deadline_s, &d.rpc_deadline_s, 8));
}

TEST_F(NetTest, DecodeRejectsBrokenConfigs) {
  net::ClusterConfig c;
  c.dataset = "reddit";
  c.model_dims = {10, 5};
  const std::string good = net::EncodeClusterConfig(c);
  EXPECT_TRUE(net::DecodeClusterConfig(good).ok());
  c.dataset.clear();
  EXPECT_FALSE(net::DecodeClusterConfig(net::EncodeClusterConfig(c)).ok());
  c.dataset = "reddit";
  c.model_dims = {10};
  EXPECT_FALSE(net::DecodeClusterConfig(net::EncodeClusterConfig(c)).ok());
}

// ---- Hostile payloads -------------------------------------------------------

TEST_F(NetTest, WireReaderRejectsLengthsPastTheEnd) {
  // Each length is read off the wire after 8 bytes are consumed, so
  // `offset + length` wraps for a length near 2^64.
  WireWriter w;
  w.U64(~uint64_t{0} - 4);
  w.Bytes("abcd", 4);
  const std::string hostile = w.Take();

  WireReader str(hostile);
  EXPECT_TRUE(str.Str().status().IsDataLoss());

  WireReader r(hostile);
  const Result<uint64_t> len = r.U64();
  ASSERT_TRUE(len.ok());
  char dst[8] = {};
  EXPECT_TRUE(r.Raw(dst, len.ValueOrDie()).IsDataLoss());
  EXPECT_TRUE(r.View(len.ValueOrDie()).status().IsDataLoss());
  EXPECT_TRUE(r.Raw(dst, 5).IsDataLoss());
  EXPECT_TRUE(r.View(5).status().IsDataLoss());
  // In-bounds reads still work, and exactly reach the end.
  ASSERT_TRUE(r.View(4).ok());
  EXPECT_EQ(r.remaining(), 0u);
}

/// A kEpochDone payload as a worker builds it, with one gradient tensor
/// whose header claims rows x cols but which carries `floats` values.
std::string EpochDonePayload(uint64_t rows, uint64_t cols, size_t floats) {
  WireWriter w;
  w.U64(7);    // run
  w.U32(2);    // rank
  w.U32(1);    // ok
  w.Str("");   // error
  w.F64(1.5);  // loss share
  w.F64(0.5);  // accuracy share
  w.U64(3);    // n
  w.U32(fault::kNumDegradeEvents);
  for (int e = 0; e < fault::kNumDegradeEvents; ++e) w.I64(e);
  w.U32(1);
  w.U64(rows);
  w.U64(cols);
  const std::vector<float> values(floats, 0.25f);
  w.Bytes(values.data(), floats * sizeof(float));
  return w.Take();
}

TEST_F(NetTest, DecodeEpochDoneRejectsBrokenReports) {
  uint64_t run = 0;
  int rank = -1;
  net::EpochDoneReport good;
  ASSERT_TRUE(
      net::DecodeEpochDone(EpochDonePayload(2, 3, 6), &run, &rank, &good)
          .ok());
  EXPECT_EQ(run, 7u);
  EXPECT_EQ(rank, 2);
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(good.n, 3u);
  ASSERT_EQ(good.grads.size(), 1u);
  EXPECT_EQ(good.grads[0], std::vector<float>(6, 0.25f));

  // Too few values for the claimed shape; a shape whose byte count wraps to
  // zero; and one far larger than any payload. None may allocate.
  for (const auto& [rows, cols] :
       {std::pair<uint64_t, uint64_t>{2, 4}, {uint64_t{1} << 62, 8},
        {uint64_t{1} << 40, uint64_t{1} << 10}, {~uint64_t{0}, 2}}) {
    net::EpochDoneReport d;
    const Status st =
        net::DecodeEpochDone(EpochDonePayload(rows, cols, 6), &run, &rank, &d);
    EXPECT_TRUE(st.IsDataLoss()) << rows << " x " << cols << ": "
                                 << st.ToString();
  }
  // A truncated header is data loss too.
  net::EpochDoneReport d;
  EXPECT_TRUE(net::DecodeEpochDone(EpochDonePayload(2, 3, 6).substr(0, 20),
                                   &run, &rank, &d)
                  .IsDataLoss());
}

// ---- Multi-process cluster matrix ------------------------------------------

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

struct ClusterOutcome {
  bool ok = false;
  std::string error;
  uint32_t digest = 0;
  std::vector<double> losses;
  int respawns = 0;
  int step_recoveries = 0;
  int adoptions = 0;
  double recovery_seconds = 0.0;  ///< death to resume, summed
  int64_t recovery_events = 0;
};

// One full coordinator lifecycle: spawn, train `epochs`, digest, shutdown.
// `post_start` runs after the workers are up but before the first epoch —
// the hook for coordinator-side fault arming (worker processes never
// inherit the test's fault registry).
ClusterOutcome RunCluster(
    const std::string& transport, int workers, int epochs,
    const std::function<void(net::ClusterConfig*)>& mutate = {},
    const std::function<void()>& post_start = {}) {
  static const Dataset& ds =
      *new Dataset(LoadDatasetScaled("reddit", 0.04).MoveValueUnsafe());
  ClusterOutcome out;
  net::ClusterConfig cc;
  cc.transport = transport;
  cc.num_workers = workers;
  cc.dataset = "reddit";
  cc.dataset_scale = 0.04;
  cc.dataset_seed = ds.load_seed;
  cc.model_kind = GnnKind::kGcn;
  cc.model_dims = {ds.feature_dim(), 16, ds.num_classes};
  cc.model_seed = 2024;
  cc.chunks_per_partition = 2;
  cc.heartbeat_interval_s = 0.05;
  cc.peer_timeout_s = 1.0;
  cc.rpc_deadline_s = 5.0;
  // Bound the watchdog: a wedged run in a test should fail in seconds, not
  // the production default's five minutes.
  cc.epoch_deadline_s = 60.0;
  if (mutate) mutate(&cc);
  auto cr = net::ClusterCoordinator::Start(std::move(cc));
  if (!cr.ok()) {
    out.error = cr.status().ToString();
    return out;
  }
  std::unique_ptr<net::ClusterCoordinator> coord = cr.MoveValueUnsafe();
  if (post_start) post_start();
  for (int e = 0; e < epochs; ++e) {
    auto er = coord->RunEpoch();
    if (!er.ok()) {
      out.error = er.status().ToString();
      return out;
    }
    out.losses.push_back(er.ValueOrDie().loss);
    out.recovery_events += er.ValueOrDie().recovery.total();
  }
  out.digest = StateDigest(coord->model(), *coord->adam());
  out.respawns = coord->respawn_count();
  out.step_recoveries = coord->step_recovery_count();
  out.adoptions = coord->adoption_count();
  out.recovery_seconds = coord->recovery_seconds();
  out.ok = true;
  return out;
}

TEST_F(NetTest, ClusterUdsTwoWorkersTrainsDeterministically) {
  const ClusterOutcome a = RunCluster("uds", 2, 2);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_EQ(2u, a.losses.size());
  EXPECT_LT(a.losses[1], a.losses[0]);  // it actually learns
  EXPECT_EQ(0, a.respawns);
  const ClusterOutcome b = RunCluster("uds", 2, 2);
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.losses, b.losses);
}

TEST_F(NetTest, ClusterTcpMatchesUds) {
  // The transport is pure plumbing: the trained weights depend only on the
  // training problem (partition, chunks, seeds), never on the wire.
  const ClusterOutcome uds = RunCluster("uds", 2, 2);
  ASSERT_TRUE(uds.ok) << uds.error;
  const ClusterOutcome tcp = RunCluster("tcp", 2, 2);
  ASSERT_TRUE(tcp.ok) << tcp.error;
  EXPECT_EQ(uds.digest, tcp.digest);
  EXPECT_EQ(uds.losses, tcp.losses);
}

TEST_F(NetTest, ClusterFourWorkersSurvivesInjectedNetFaults) {
  const ClusterOutcome clean = RunCluster("uds", 4, 2);
  ASSERT_TRUE(clean.ok) << clean.error;
  // One worker runs with lossy I/O: dropped frames exercise the deadline +
  // RetryTransient path, disconnects the reconnect-and-replay path. The
  // run must still converge to the clean run's exact weights.
  const ClusterOutcome faulty = RunCluster("uds", 4, 2, [](net::ClusterConfig* c) {
    c->fault_rank = 1;
    c->worker_fault_spec =
        "net.send:drop:0.04:11;net.recv:disconnect:0.03:13";
  });
  ASSERT_TRUE(faulty.ok) << faulty.error;
  EXPECT_EQ(clean.digest, faulty.digest);
  EXPECT_EQ(clean.losses, faulty.losses);
}

TEST_F(NetTest, ClusterKillDrillRecoversBitwiseIdentical) {
  const ClusterOutcome clean = RunCluster("uds", 2, 2);
  ASSERT_TRUE(clean.ok) << clean.error;
  // Worker 1 SIGKILLs itself between forward and backward of epoch 0. With
  // the default recover_mode="step" the epoch never aborts: the coordinator
  // respawns the rank mid-epoch, the survivor serves its fetch/push logs,
  // and the replayed rank converges to the exact same weights.
  const ClusterOutcome killed = RunCluster("uds", 2, 2, [](net::ClusterConfig* c) {
    c->kill_rank = 1;
    c->kill_epoch = 0;
  });
  ASSERT_TRUE(killed.ok) << killed.error;
  EXPECT_GE(killed.respawns, 1);
  EXPECT_GE(killed.step_recoveries, 1);
  EXPECT_GE(killed.recovery_events, 2);  // >= peer_death + step_recovery
  EXPECT_EQ(clean.digest, killed.digest);
  EXPECT_EQ(clean.losses, killed.losses);
}

TEST_F(NetTest, ClusterEpochLadderStillRecovers) {
  // The PR 8 rung stays available: recover_mode="epoch" aborts, restores
  // the epoch-head checkpoint, respawns and reruns — same final weights.
  const ClusterOutcome clean = RunCluster("uds", 2, 2);
  ASSERT_TRUE(clean.ok) << clean.error;
  const ClusterOutcome killed = RunCluster("uds", 2, 2, [](net::ClusterConfig* c) {
    c->kill_rank = 1;
    c->kill_epoch = 0;
    c->recover_mode = "epoch";
  });
  ASSERT_TRUE(killed.ok) << killed.error;
  EXPECT_GE(killed.respawns, 1);
  EXPECT_EQ(0, killed.step_recoveries);
  EXPECT_EQ(clean.digest, killed.digest);
  EXPECT_EQ(clean.losses, killed.losses);
}

TEST_F(NetTest, ClusterAdoptModeRecoversBitwiseIdentical) {
  // Survivor takeover: with only one survivor left, r0 must host BOTH
  // partitions for the rest of the epoch (owner-tagged requests route to
  // the adopted RankState, including self-dial to its own process).
  const ClusterOutcome clean = RunCluster("uds", 2, 2);
  ASSERT_TRUE(clean.ok) << clean.error;
  // Capture the [RECOVERY] lines of every process: workers inherit fd 2.
  std::fflush(stderr);
  FILE* log = std::tmpfile();
  ASSERT_NE(nullptr, log);
  const int saved_stderr = ::dup(2);
  ::dup2(::fileno(log), 2);
  const ClusterOutcome killed = RunCluster("uds", 2, 2, [](net::ClusterConfig* c) {
    c->kill_rank = 1;
    c->kill_epoch = 0;
    c->recover_mode = "adopt";
  });
  std::fflush(stderr);
  ::dup2(saved_stderr, 2);
  ::close(saved_stderr);
  std::string recovery_log;
  std::rewind(log);
  for (int ch; (ch = std::fgetc(log)) != EOF;) {
    recovery_log += static_cast<char>(ch);
  }
  std::fclose(log);
  std::fputs(recovery_log.c_str(), stderr);
  ASSERT_TRUE(killed.ok) << killed.error;
  EXPECT_GE(killed.adoptions, 1);
  // The coordinator never died: re-addressing rank 1 to r0 and dropping
  // that connection at the respawn must not read as its death.
  EXPECT_EQ(std::string::npos, recovery_log.find("rung=coord_park"));
  // The adopted partition lives in r0's process for epoch 0; r1 gets a
  // fresh process again at the next epoch.
  EXPECT_GE(killed.respawns, 1);
  EXPECT_EQ(clean.digest, killed.digest);
  EXPECT_EQ(clean.losses, killed.losses);
}

TEST_F(NetTest, ClusterKillDuringRecoveryDoubleFault) {
  // The hardest drill: r1 dies mid-epoch, and while its recovery is being
  // announced, r2 SIGKILLs itself (triggered by r1's kPeerUpdate). Two
  // overlapping step recoveries in one epoch, still bitwise-identical.
  const ClusterOutcome clean = RunCluster("uds", 4, 2);
  ASSERT_TRUE(clean.ok) << clean.error;
  const ClusterOutcome killed = RunCluster("uds", 4, 2, [](net::ClusterConfig* c) {
    c->kill_rank = 1;
    c->kill_epoch = 0;
    c->kill_on_recover_rank = 2;
  });
  ASSERT_TRUE(killed.ok) << killed.error;
  EXPECT_GE(killed.respawns, 2);
  EXPECT_GE(killed.step_recoveries, 2);
  // r2 dies inside r1's recovery, while the coordinator's kPeerUpdate call
  // to it is in flight. Its verified death fails that call at once: no
  // recovery waits out the 5 s RPC deadline.
  EXPECT_LT(killed.recovery_seconds, 5.0 / 2);
  EXPECT_EQ(clean.digest, killed.digest);
  EXPECT_EQ(clean.losses, killed.losses);
}

// The same training problem as a single-process engine that hosts all of
// `cc`'s devices, with the engine's defaults for everything `cc` leaves out.
uint32_t EngineDigest(const net::ClusterConfig& cc, int epochs) {
  static const Dataset& ds =
      *new Dataset(LoadDatasetScaled("reddit", 0.04).MoveValueUnsafe());
  ModelConfig mc;
  mc.kind = cc.model_kind;
  mc.dims = cc.model_dims;
  mc.seed = cc.model_seed;
  EngineConfig ec;
  ec.num_devices = cc.num_workers;
  ec.chunks_per_partition = cc.chunks_per_partition;
  ec.dedup = static_cast<DedupLevel>(cc.dedup_level);
  ec.reorganize = cc.reorganize;
  ec.partition_seed = cc.partition_seed;
  ec.comm_precision = cc.wire;
  ec.adam = cc.adam;
  auto er = HongTuEngine::Create(&ds, mc, ec);
  EXPECT_TRUE(er.ok()) << er.status().ToString();
  if (!er.ok()) return 0;
  HongTuEngine* engine = er.ValueOrDie().get();
  for (int e = 0; e < epochs; ++e) {
    const auto st = engine->TrainEpoch();
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    if (!st.ok()) return 0;
  }
  return StateDigest(engine->model(), *engine->adam());
}

TEST_F(NetTest, ClusterMatchesSingleProcessEngine) {
  // Cross-engine equivalence: a 2-worker cluster and a HongTuEngine hosting
  // both devices run one Algorithm-1 step, so two epochs end on the same
  // params, Adam moments and step count — for GCN at fp32 (the cached
  // backward) and GAT at bf16 (the recompute backward, rows quantized on
  // every wire crossing).
  struct Case {
    GnnKind kind;
    kernels::CommPrecision wire;
  };
  for (const Case c : {Case{GnnKind::kGcn, kernels::CommPrecision::kFp32},
                       Case{GnnKind::kGat, kernels::CommPrecision::kBf16}}) {
    net::ClusterConfig used;
    const ClusterOutcome cluster =
        RunCluster("uds", 2, 2, [&](net::ClusterConfig* cc) {
          cc->model_kind = c.kind;
          cc->wire = c.wire;
          used = *cc;
        });
    ASSERT_TRUE(cluster.ok) << cluster.error;
    EXPECT_EQ(0, cluster.respawns);
    EXPECT_EQ(cluster.digest, EngineDigest(used, 2))
        << GnnKindName(c.kind) << " at " << kernels::CommPrecisionName(c.wire);
  }
}

TEST_F(NetTest, ClusterPipelineDepthsAgree) {
  // The workers inherit HONGTU_MAX_INFLIGHT, so this runs their layer loops
  // strictly in order and then two batches deep, where the load lane's
  // fetches and the store lane's pushes to the same peer are in flight at
  // once. Both must finish (no lane waits on a reply queued behind another)
  // and agree bitwise.
  const char* prev = std::getenv("HONGTU_MAX_INFLIGHT");
  const std::string saved = prev != nullptr ? prev : "";
  ASSERT_EQ(0, setenv("HONGTU_MAX_INFLIGHT", "1", 1));
  const ClusterOutcome d1 = RunCluster("uds", 2, 2);
  ASSERT_EQ(0, setenv("HONGTU_MAX_INFLIGHT", "2", 1));
  const ClusterOutcome d2 = RunCluster("uds", 2, 2);
  if (prev != nullptr) {
    setenv("HONGTU_MAX_INFLIGHT", saved.c_str(), 1);
  } else {
    unsetenv("HONGTU_MAX_INFLIGHT");
  }
  ASSERT_TRUE(d1.ok) << d1.error;
  ASSERT_TRUE(d2.ok) << d2.error;
  EXPECT_EQ(d1.digest, d2.digest);
  EXPECT_EQ(d1.losses, d2.losses);
  // Nothing died on the way (under a sanitizer, a worker that reports an
  // error exits, and recovery would otherwise hide it).
  EXPECT_EQ(0, d1.respawns + d2.respawns);
  EXPECT_EQ(0, d1.step_recoveries + d2.step_recoveries);
}

TEST_F(NetTest, ClusterCkptFaultsPlusNetFaultsStillConverge) {
  // Checkpoint-write faults on the coordinator (armed after Start so they
  // hit the epoch-end saves) combined with lossy worker I/O: saves retry or
  // degrade (kCheckpointFallback), training itself must be untouched.
  const ClusterOutcome clean = RunCluster("uds", 2, 2);
  ASSERT_TRUE(clean.ok) << clean.error;
  const ClusterOutcome faulty = RunCluster(
      "uds", 2, 2,
      [](net::ClusterConfig* c) {
        c->fault_rank = 1;
        c->worker_fault_spec = "net.send:drop:0.04:17";
      },
      [] {
        fault::SiteSpec spec;
        spec.kind = fault::Kind::kTransient;
        spec.prob = 0.5;
        spec.seed = 99;
        ASSERT_TRUE(fault::Arm(fault::Site::kCkptWrite, spec).ok());
      });
  fault::DisarmAll();
  ASSERT_TRUE(faulty.ok) << faulty.error;
  EXPECT_EQ(clean.digest, faulty.digest);
  EXPECT_EQ(clean.losses, faulty.losses);
}

// ---- Cluster journal + coordinator fault tolerance -------------------------

std::string FreshTempDir() {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s", TempDirTemplate);
  const char* d = mkdtemp(buf);
  EXPECT_NE(nullptr, d);
  return d != nullptr ? std::string(d) : std::string("/tmp");
}

net::JournalRecord MakeRecord(net::JournalRecordType t, std::string payload) {
  net::JournalRecord r;
  r.type = t;
  r.payload = std::move(payload);
  return r;
}

TEST_F(NetTest, JournalAppendReplayAndTornTail) {
  const std::string dir = FreshTempDir();
  const std::string path = dir + "/cluster.journal";
  {
    auto jr = net::ClusterJournal::Open(path);
    ASSERT_TRUE(jr.ok()) << jr.status().ToString();
    auto j = jr.MoveValueUnsafe();
    WireWriter t;
    t.U64(7);
    ASSERT_TRUE(j->Append(net::JournalRecordType::kTerm, t.Take()).ok());
    WireWriter m;
    m.U32(0);
    m.Str("uds:" + dir + "/w0.sock");
    m.U64(1234);
    ASSERT_TRUE(j->Append(net::JournalRecordType::kMember, m.Take()).ok());
  }
  auto rr = net::ClusterJournal::Replay(path);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_EQ(2u, rr.ValueOrDie().size());

  // Torn tail — truncation into the last record drops exactly that record;
  // the durable prefix replays without an error (a crashed append).
  struct stat st;
  ASSERT_EQ(0, ::stat(path.c_str(), &st));
  ASSERT_EQ(0, ::truncate(path.c_str(), st.st_size - 5));
  auto tr = net::ClusterJournal::Replay(path);
  ASSERT_TRUE(tr.ok()) << tr.status().ToString();
  EXPECT_EQ(1u, tr.ValueOrDie().size());

  // Mid-record corruption fails the record CRC: replay stops at the damage.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(nullptr, f);
    ASSERT_EQ(0, std::fseek(f, 9, SEEK_SET));  // inside record 1's framing
    std::fputc(0x5a, f);
    std::fclose(f);
  }
  auto cr = net::ClusterJournal::Replay(path);
  ASSERT_TRUE(cr.ok()) << cr.status().ToString();
  EXPECT_EQ(0u, cr.ValueOrDie().size());

  // Header damage is not a torn tail — it is DataLoss (the coordinator then
  // falls back to the checkpoint rung and starts a fresh journal).
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(nullptr, f);
    std::fputc(0x00, f);
    std::fclose(f);
  }
  EXPECT_FALSE(net::ClusterJournal::Replay(path).ok());
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

TEST_F(NetTest, JournalReplayOfADirectoryIsAnError) {
  // A directory opens like a file; its size must not be taken from ftell
  // (LLONG_MAX on some filesystems), and replay must fail cleanly.
  const std::string dir = FreshTempDir();
  const auto rr = net::ClusterJournal::Replay(dir);
  EXPECT_FALSE(rr.ok());
  EXPECT_FALSE(rr.status().IsNotFound()) << rr.status().ToString();
  ::rmdir(dir.c_str());
}

TEST_F(NetTest, JournalCompactRewritesLiveStateOnly) {
  const std::string dir = FreshTempDir();
  const std::string path = dir + "/cluster.journal";
  auto jr = net::ClusterJournal::Open(path);
  ASSERT_TRUE(jr.ok()) << jr.status().ToString();
  auto j = jr.MoveValueUnsafe();
  for (int i = 0; i < 8; ++i) {
    WireWriter t;
    t.U64(static_cast<uint64_t>(i + 1));
    ASSERT_TRUE(j->Append(net::JournalRecordType::kTerm, t.Take()).ok());
  }
  WireWriter t;
  t.U64(9);
  WireWriter m;
  m.U32(1);
  m.Str("uds:" + dir + "/w1.sock");
  m.U64(4321);
  ASSERT_TRUE(j->Compact({MakeRecord(net::JournalRecordType::kTerm, t.Take()),
                          MakeRecord(net::JournalRecordType::kMember,
                                     m.Take())})
                  .ok());
  auto rr = net::ClusterJournal::Replay(path);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_EQ(2u, rr.ValueOrDie().size());
  // The fd survives the rename swap: appends keep landing in the new file.
  WireWriter a;
  a.U64(3);
  a.Str("/ck/epoch3");
  ASSERT_TRUE(j->Append(net::JournalRecordType::kApplied, a.Take()).ok());
  auto r2 = net::ClusterJournal::Replay(path);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(3u, r2.ValueOrDie().size());
  auto js = net::BuildJournalState(r2.ValueOrDie());
  ASSERT_TRUE(js.ok()) << js.status().ToString();
  EXPECT_EQ(9u, js.ValueOrDie().term);
  EXPECT_EQ(3, js.ValueOrDie().epochs_applied);
  j.reset();
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

TEST_F(NetTest, JournalStateDuplicateRegistrationIsIdempotent) {
  std::vector<net::JournalRecord> recs;
  auto member = [](uint32_t rank, const std::string& addr, uint64_t pid) {
    WireWriter w;
    w.U32(rank);
    w.Str(addr);
    w.U64(pid);
    return w.Take();
  };
  WireWriter t;
  t.U64(3);
  recs.push_back(MakeRecord(net::JournalRecordType::kTerm, t.Take()));
  // Duplicate registration (worker respawned / reconnected): last wins.
  recs.push_back(
      MakeRecord(net::JournalRecordType::kMember, member(0, "uds:a", 100)));
  recs.push_back(
      MakeRecord(net::JournalRecordType::kMember, member(0, "uds:b", 200)));
  WireWriter rs;
  rs.U64(9);
  rs.U64(2);
  rs.U32(0);
  recs.push_back(MakeRecord(net::JournalRecordType::kRunStart, rs.Take()));
  // Duplicate done report (resend straddling a coordinator crash): first
  // wins, matching the in-memory `received` dedup.
  auto report = [](uint64_t run, uint32_t rank, const std::string& raw) {
    WireWriter w;
    w.U64(run);
    w.U32(rank);
    w.Str(raw);
    return w.Take();
  };
  recs.push_back(
      MakeRecord(net::JournalRecordType::kDoneReport, report(9, 0, "first")));
  recs.push_back(
      MakeRecord(net::JournalRecordType::kDoneReport, report(9, 0, "again")));
  auto jr = net::BuildJournalState(recs);
  ASSERT_TRUE(jr.ok()) << jr.status().ToString();
  const net::JournalState& js = jr.ValueOrDie();
  EXPECT_EQ(3u, js.term);
  ASSERT_EQ(1u, js.members.size());
  EXPECT_EQ("uds:b", js.members.at(0).addr);
  EXPECT_EQ(200u, js.members.at(0).pid);
  EXPECT_EQ(9u, js.run);
  EXPECT_EQ(2, js.run_epoch);
  ASSERT_EQ(1u, js.reports.size());
  EXPECT_EQ("first", js.reports.at(0));

  // Applying the run's epoch settles it: a successor must not adopt.
  WireWriter a;
  a.U64(3);
  a.Str("/ck/epoch3");
  recs.push_back(MakeRecord(net::JournalRecordType::kApplied, a.Take()));
  auto jr2 = net::BuildJournalState(recs);
  ASSERT_TRUE(jr2.ok());
  EXPECT_EQ(0u, jr2.ValueOrDie().run);
  EXPECT_TRUE(jr2.ValueOrDie().reports.empty());
  EXPECT_EQ(9u, jr2.ValueOrDie().max_run);
}

TEST_F(NetTest, CoordinatorTermFencingHelpers) {
  // Commands carry coordinator authority and are fenced ...
  EXPECT_TRUE(net::IsCoordinatorCommand(MsgType::kEpoch));
  EXPECT_TRUE(net::IsCoordinatorCommand(MsgType::kEval));
  EXPECT_TRUE(net::IsCoordinatorCommand(MsgType::kShutdown));
  EXPECT_TRUE(net::IsCoordinatorCommand(MsgType::kAbort));
  EXPECT_TRUE(net::IsCoordinatorCommand(MsgType::kPeerUpdate));
  EXPECT_TRUE(net::IsCoordinatorCommand(MsgType::kAdoptPartition));
  EXPECT_TRUE(net::IsCoordinatorCommand(MsgType::kCoordUpdate));
  // ... peer data traffic and worker->coordinator reports are not.
  EXPECT_FALSE(net::IsCoordinatorCommand(MsgType::kHello));
  EXPECT_FALSE(net::IsCoordinatorCommand(MsgType::kEpochDone));
  EXPECT_FALSE(net::IsCoordinatorCommand(MsgType::kFetchRows));
  EXPECT_FALSE(net::IsCoordinatorCommand(MsgType::kGradPush));
  EXPECT_FALSE(net::IsCoordinatorCommand(MsgType::kHeartbeat));

  uint64_t known = 5;
  const Status stale = net::CheckCoordinatorTerm(3, &known);
  EXPECT_EQ(StatusCode::kInvalidArgument, stale.code());  // non-transient
  EXPECT_EQ(5u, known);
  EXPECT_TRUE(net::CheckCoordinatorTerm(5, &known).ok());
  EXPECT_EQ(5u, known);
  EXPECT_TRUE(net::CheckCoordinatorTerm(8, &known).ok());
  EXPECT_EQ(8u, known);  // newer term adopted
}

TEST_F(NetTest, ClusterStaleTermCoordinatorIsFenced) {
  // A "zombie" coordinator: still alive after a successor took over. Its
  // commands carry the old term; every worker must reject them, and the
  // successor's cluster must keep training bitwise-identically.
  const ClusterOutcome clean = RunCluster("uds", 2, 2);
  ASSERT_TRUE(clean.ok) << clean.error;
  const std::string dir = FreshTempDir();
  const auto stable = [&dir](net::ClusterConfig* c) {
    c->runtime_dir = dir;
    c->checkpoint_dir = dir;
    // Keep the zombie from declaring its stolen workers dead while the
    // fencing assertion runs.
    c->peer_timeout_s = 5.0;
    c->max_epoch_attempts = 1;
  };
  static const Dataset& ds =
      *new Dataset(LoadDatasetScaled("reddit", 0.04).MoveValueUnsafe());
  net::ClusterConfig cc;
  cc.transport = "uds";
  cc.num_workers = 2;
  cc.dataset = "reddit";
  cc.dataset_scale = 0.04;
  cc.dataset_seed = ds.load_seed;
  cc.model_kind = GnnKind::kGcn;
  cc.model_dims = {ds.feature_dim(), 16, ds.num_classes};
  cc.model_seed = 2024;
  cc.chunks_per_partition = 2;
  cc.heartbeat_interval_s = 0.05;
  cc.rpc_deadline_s = 5.0;
  cc.epoch_deadline_s = 60.0;
  stable(&cc);
  net::ClusterConfig cc2 = cc;
  auto ar = net::ClusterCoordinator::Start(std::move(cc));
  ASSERT_TRUE(ar.ok()) << ar.status().ToString();
  auto old_coord = ar.MoveValueUnsafe();
  EXPECT_EQ(1u, old_coord->term());
  auto e0 = old_coord->RunEpoch();
  ASSERT_TRUE(e0.ok()) << e0.status().ToString();
  EXPECT_EQ(clean.losses[0], e0.ValueOrDie().loss);

  // Successor re-attaches the live workers under a strictly higher term.
  cc2.resume = true;
  auto br = net::ClusterCoordinator::Start(std::move(cc2));
  ASSERT_TRUE(br.ok()) << br.status().ToString();
  auto succ = br.MoveValueUnsafe();
  EXPECT_GT(succ->term(), old_coord->term());
  EXPECT_TRUE(succ->resumed_from_journal());
  EXPECT_EQ(2, succ->reattach_count());
  EXPECT_EQ(0, succ->respawn_count());

  // The zombie's next command is provably rejected: kInvalidArgument is
  // non-transient, so the failure is fast, not a retry-until-deadline.
  auto ez = old_coord->RunEpoch();
  ASSERT_FALSE(ez.ok());
  EXPECT_NE(std::string::npos, ez.status().ToString().find("fenced"))
      << ez.status().ToString();
  old_coord->Crash();  // abandon: the successor owns the workers now
  old_coord.reset();

  auto e1 = succ->RunEpoch();
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  EXPECT_EQ(clean.losses[1], e1.ValueOrDie().loss);
  EXPECT_EQ(clean.digest, StateDigest(succ->model(), *succ->adam()));
  succ->Shutdown();
}

TEST_F(NetTest, ClusterZombieExitDoesNotParkWorkers) {
  // A superseded coordinator exiting closes connections that carried its
  // old term. That is not the loss of the current coordinator: the workers
  // must stay attached to the successor. Parking on it would start the
  // coordinator lease, and with a short lease an idle successor would find
  // its workers gone and respawn them.
  const ClusterOutcome clean = RunCluster("uds", 2, 2);
  ASSERT_TRUE(clean.ok) << clean.error;
  static const Dataset& ds =
      *new Dataset(LoadDatasetScaled("reddit", 0.04).MoveValueUnsafe());
  net::ClusterConfig cc;
  cc.transport = "uds";
  cc.num_workers = 2;
  cc.dataset = "reddit";
  cc.dataset_scale = 0.04;
  cc.dataset_seed = ds.load_seed;
  cc.model_kind = GnnKind::kGcn;
  cc.model_dims = {ds.feature_dim(), 16, ds.num_classes};
  cc.model_seed = 2024;
  cc.chunks_per_partition = 2;
  cc.heartbeat_interval_s = 0.05;
  cc.peer_timeout_s = 5.0;
  cc.rpc_deadline_s = 5.0;
  cc.epoch_deadline_s = 60.0;
  cc.coord_lease_s = 1.0;
  const std::string dir = FreshTempDir();
  cc.runtime_dir = dir;
  cc.checkpoint_dir = dir;
  net::ClusterConfig cc2 = cc;
  auto ar = net::ClusterCoordinator::Start(std::move(cc));
  ASSERT_TRUE(ar.ok()) << ar.status().ToString();
  auto old_coord = ar.MoveValueUnsafe();
  auto e0 = old_coord->RunEpoch();
  ASSERT_TRUE(e0.ok()) << e0.status().ToString();

  cc2.resume = true;
  auto br = net::ClusterCoordinator::Start(std::move(cc2));
  ASSERT_TRUE(br.ok()) << br.status().ToString();
  auto succ = br.MoveValueUnsafe();
  ASSERT_EQ(2, succ->reattach_count());
  old_coord->Crash();
  old_coord.reset();

  // Idle for longer than the lease before the successor's next command.
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  auto e1 = succ->RunEpoch();
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  EXPECT_EQ(0, succ->respawn_count());
  EXPECT_EQ(clean.losses[1], e1.ValueOrDie().loss);
  EXPECT_EQ(clean.digest, StateDigest(succ->model(), *succ->adam()));
  succ->Shutdown();
}

TEST_F(NetTest, ClusterCoordinatorCrashResumeMidEpoch) {
  // Coordinator dies mid-epoch after at least one worker's done report hit
  // the journal. The successor replays the journal, re-attaches the (still
  // computing) workers, adopts the in-flight run with the journaled report
  // prefilled, and finishes WITHOUT an epoch restart — bitwise-identical.
  const ClusterOutcome clean = RunCluster("uds", 2, 2);
  ASSERT_TRUE(clean.ok) << clean.error;
  const std::string dir = FreshTempDir();
  static const Dataset& ds =
      *new Dataset(LoadDatasetScaled("reddit", 0.04).MoveValueUnsafe());
  net::ClusterConfig cc;
  cc.transport = "uds";
  cc.num_workers = 2;
  cc.dataset = "reddit";
  cc.dataset_scale = 0.04;
  cc.dataset_seed = ds.load_seed;
  cc.model_kind = GnnKind::kGcn;
  cc.model_dims = {ds.feature_dim(), 16, ds.num_classes};
  cc.model_seed = 2024;
  cc.chunks_per_partition = 2;
  cc.heartbeat_interval_s = 0.05;
  cc.peer_timeout_s = 1.0;
  cc.rpc_deadline_s = 5.0;
  cc.epoch_deadline_s = 60.0;
  cc.runtime_dir = dir;
  cc.checkpoint_dir = dir;
  net::ClusterConfig cc2 = cc;
  cc.coord_crash_epoch = 0;
  cc.coord_crash_done = 1;
  auto ar = net::ClusterCoordinator::Start(std::move(cc));
  ASSERT_TRUE(ar.ok()) << ar.status().ToString();
  auto doomed = ar.MoveValueUnsafe();
  auto e0 = doomed->RunEpoch();
  ASSERT_FALSE(e0.ok());  // the crash drill always fails the call
  doomed.reset();         // dtor must not touch the successor's workers

  cc2.resume = true;
  auto br = net::ClusterCoordinator::Start(std::move(cc2));
  ASSERT_TRUE(br.ok()) << br.status().ToString();
  auto succ = br.MoveValueUnsafe();
  EXPECT_TRUE(succ->resumed_from_journal());
  EXPECT_EQ(2, succ->reattach_count());
  EXPECT_EQ(0, succ->respawn_count());

  std::vector<double> losses;
  uint32_t digest = 0;
  for (int e = 0; e < 2; ++e) {
    auto er = succ->RunEpoch();
    ASSERT_TRUE(er.ok()) << er.status().ToString();
    losses.push_back(er.ValueOrDie().loss);
    // Step-granular resume: the adopted epoch must never fall back to the
    // epoch-restart rung.
    EXPECT_EQ(0, er.ValueOrDie().recovery[fault::DegradeEvent::kEpochRestart]);
  }
  digest = StateDigest(succ->model(), *succ->adam());
  EXPECT_EQ(clean.losses, losses);
  EXPECT_EQ(clean.digest, digest);
  succ->Shutdown();
}

// ---- Seeded corrupt-frame corpus -------------------------------------------

TEST_F(NetTest, SeededCorruptCorpusClassifiesCleanly) {
  // Fuzz the frame parser with a deterministic corpus: valid frames whose
  // wire bytes are then bit-flipped (header or payload region) or
  // truncated. Every outcome must be a clean classification — in-band
  // payload DataLoss with the header fields intact, a severed-stream error,
  // or EOF-as-Unavailable — never a crash, hang, or silent acceptance.
  uint64_t rng = 0xC0FFEE1234ULL;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  int in_band = 0, severed = 0, truncated = 0;
  for (int iter = 0; iter < 240; ++iter) {
    const size_t psz = static_cast<size_t>(next() % 513);
    Frame f;
    f.type = static_cast<MsgType>(1 + next() % 18);
    f.src_rank = static_cast<int>(next() % 8);
    f.seq = static_cast<uint32_t>(next());
    f.payload.resize(psz);
    for (size_t i = 0; i < psz; ++i) {
      f.payload[i] = static_cast<char>(next());
    }
    std::string wire;
    {
      SocketPair cap;
      ASSERT_TRUE(net::WriteFrame(cap.a, f, 5.0).ok());
      wire.resize(net::kFrameHeaderBytes + psz);
      ASSERT_EQ(static_cast<ssize_t>(wire.size()),
                read(cap.b, &wire[0], wire.size()));
    }
    std::string mut = wire;
    const int mode = psz == 0 && iter % 3 == 1 ? 0 : iter % 3;
    if (mode == 0) {
      // One guaranteed-effective flip inside the CRC-protected header.
      mut[next() % net::kFrameHeaderBytes] ^=
          static_cast<char>(1 + next() % 255);
    } else if (mode == 1) {
      mut[net::kFrameHeaderBytes + next() % psz] ^=
          static_cast<char>(1 + next() % 255);
    } else {
      mut.resize(next() % mut.size());
    }
    SocketPair sp;
    if (!mut.empty()) {
      ASSERT_EQ(static_cast<ssize_t>(mut.size()),
                write(sp.a, mut.data(), mut.size()));
    }
    close(sp.a);
    sp.a = -1;
    Frame got;
    bool dropped = false;
    const Status st = net::ReadFrame(sp.b, &got, 5.0, &dropped);
    ASSERT_FALSE(st.ok()) << "mutated frame parsed clean (iter " << iter
                          << ", mode " << mode << ")";
    if (mode == 1) {
      // Payload damage: header intact, so the error is in-band — type and
      // seq survive for a framed kError reply.
      ASSERT_TRUE(st.IsDataLoss()) << st.ToString();
      EXPECT_EQ(f.type, got.type);
      EXPECT_EQ(f.seq, got.seq);
      ++in_band;
    } else if (mode == 0) {
      // Header damage: the stream is unframeable; any non-OK code is a
      // sever, and the parser must not have blocked on phantom payload.
      ++severed;
    } else {
      ASSERT_EQ(StatusCode::kUnavailable, st.code()) << st.ToString();
      ++truncated;
    }
  }
  // The corpus must have exercised every classification.
  EXPECT_GT(in_band, 0);
  EXPECT_GT(severed, 0);
  EXPECT_GT(truncated, 0);
}

}  // namespace
}  // namespace hongtu

int main(int argc, char** argv) {
  // Must run before gtest: the cluster cases re-exec this binary as worker
  // processes (HONGTU_DIST_ROLE=worker), which never reach the test runner.
  hongtu::net::MaybeRunClusterWorker();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
