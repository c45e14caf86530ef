#include "hongtu/engine/checkpoint.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "hongtu/common/crc32c.h"
#include "hongtu/common/file.h"
#include "hongtu/common/wire.h"

namespace hongtu {

namespace {

constexpr uint32_t Tag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr uint32_t kMagic = Tag('H', 'T', 'C', 'K');
constexpr uint32_t kVersion = 1;
constexpr uint32_t kTagMeta = Tag('M', 'E', 'T', 'A');
constexpr uint32_t kTagParam = Tag('P', 'A', 'R', 'M');
constexpr uint32_t kTagMoment1 = Tag('A', 'D', 'M', '1');
constexpr uint32_t kTagMoment2 = Tag('A', 'D', 'M', '2');
constexpr uint32_t kTagEnd = Tag('E', 'N', 'D', 'S');

// Little-endian, written and read through the WireWriter/WireReader cursor
// (common/wire.h); the tensor rows are streamed straight from the tensors
// in host order, which is little-endian on every host this code targets.
//   META: [i64 epoch][i64 adam step][u32 param count][u32 0]
//   PARM/ADM1/ADM2: [i64 rows][i64 cols][rows x cols f32]
constexpr uint64_t kMetaBytes = 24;
constexpr uint64_t kTensorHeaderBytes = 16;

/// One `[tag][len][payload parts...][crc]` section. The `ckpt.write` fault
/// site pokes once per section, before any of its bytes reach the file —
/// an injected kill lands between sections at a deterministic offset.
struct Part {
  const void* data;
  size_t len;
};

Status WriteSection(int fd, uint32_t tag, const Part* parts, int num_parts) {
  HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kCkptWrite));
  uint64_t len = 0;
  uint32_t crc = 0;
  for (int i = 0; i < num_parts; ++i) {
    len += parts[i].len;
    crc = Crc32c(parts[i].data, parts[i].len, crc);
  }
  WireWriter head;
  head.U32(tag);
  head.U64(len);
  HT_RETURN_IF_ERROR(WriteAll(fd, head.buf().data(), head.buf().size()));
  for (int i = 0; i < num_parts; ++i) {
    HT_RETURN_IF_ERROR(WriteAll(fd, parts[i].data, parts[i].len));
  }
  WireWriter tail;
  tail.U32(crc);
  return WriteAll(fd, tail.buf().data(), tail.buf().size());
}

Status WriteTensorSection(int fd, uint32_t tag, const Tensor& t) {
  WireWriter hdr;
  hdr.I64(t.rows());
  hdr.I64(t.cols());
  const Part parts[2] = {
      {hdr.buf().data(), hdr.buf().size()},
      {t.data(), static_cast<size_t>(t.size()) * sizeof(float)},
  };
  return WriteSection(fd, tag, parts, 2);
}

/// A parsed section: tag + payload span inside the file image.
struct Section {
  uint32_t tag = 0;
  const unsigned char* payload = nullptr;
  uint64_t len = 0;
};

/// Reads and structurally validates a snapshot: magic/version, per-section
/// bounds and CRC32C, terminating ENDS footer. Returns the sections in file
/// order. Any violation means the file is damaged or was cut mid-write.
Status ParseSnapshot(const std::string& path, std::string* image,
                     std::vector<Section>* sections) {
  HT_ASSIGN_OR_RETURN(*image, ReadFile(path));
  // Restore-time injection (transient IO, corruption): poked after the
  // snapshot exists and was read, so kNotFound keeps its real meaning and
  // CheckpointManager::Restore's previous-snapshot fallback is what an
  // injected failure exercises.
  HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kCkptRead));

  const auto damaged = [&path](const std::string& what) {
    return Status::DataLoss("checkpoint '" + path + "': " + what);
  };
  WireReader r(*image);
  const Result<uint32_t> magic = r.U32();
  const Result<uint32_t> version = r.U32();
  if (!version.ok()) return damaged("truncated header");
  if (magic.ValueOrDie() != kMagic) return damaged("bad magic");
  if (version.ValueOrDie() != kVersion) {
    return damaged("unsupported version " +
                   std::to_string(version.ValueOrDie()));
  }

  sections->clear();
  while (r.remaining() > 0) {
    const Result<uint32_t> tag = r.U32();
    const Result<uint64_t> len = r.U64();
    if (!len.ok()) return damaged("truncated section header");
    const Result<const unsigned char*> payload = r.View(len.ValueOrDie());
    const Result<uint32_t> want = r.U32();
    if (!payload.ok() || !want.ok()) {
      return damaged("section length exceeds file");
    }
    if (Crc32c(payload.ValueOrDie(), len.ValueOrDie()) != want.ValueOrDie()) {
      return damaged("section CRC32C mismatch");
    }
    if (tag.ValueOrDie() == kTagEnd) return Status::OK();
    sections->push_back(
        Section{tag.ValueOrDie(), payload.ValueOrDie(), len.ValueOrDie()});
  }
  return damaged("missing ENDS footer (writer died mid-file)");
}

/// Validates a tensor section against the live tensor `t` and returns a
/// pointer to its rows.
Result<const unsigned char*> CheckTensorSection(const Section& s,
                                                uint32_t want_tag,
                                                const Tensor& t,
                                                const std::string& what) {
  if (s.tag != want_tag) {
    return Status::DataLoss("checkpoint: unexpected section order at " + what);
  }
  const uint64_t body = static_cast<uint64_t>(t.size()) * sizeof(float);
  if (s.len != kTensorHeaderBytes + body) {
    return Status::DataLoss("checkpoint: payload size mismatch at " + what);
  }
  WireReader r(s.payload, s.len);
  const int64_t rows = r.I64().ValueOrDie();
  const int64_t cols = r.I64().ValueOrDie();
  if (rows != t.rows() || cols != t.cols()) {
    return Status::DataLoss("checkpoint: shape mismatch at " + what +
                            " (snapshot " + std::to_string(rows) + "x" +
                            std::to_string(cols) + ", live " +
                            std::to_string(t.rows()) + "x" +
                            std::to_string(t.cols()) + ")");
  }
  return r.View(body);
}

}  // namespace

Status SaveCheckpoint(const std::string& path, GnnModel* model,
                      const Adam& adam, int64_t epoch) {
  const std::vector<Tensor*> params = model->AllParams();
  if (static_cast<int64_t>(params.size()) != adam.num_params()) {
    return Status::Invalid(
        "SaveCheckpoint: model/optimizer parameter count mismatch");
  }
  return ReplaceFile(path, [&](int fd) -> Status {
    WireWriter head;
    head.U32(kMagic);
    head.U32(kVersion);
    HT_RETURN_IF_ERROR(WriteAll(fd, head.buf().data(), head.buf().size()));
    WireWriter meta;
    meta.I64(epoch);
    meta.I64(adam.step_count());
    meta.U32(static_cast<uint32_t>(params.size()));
    meta.U32(0);
    const Part meta_part{meta.buf().data(), meta.buf().size()};
    HT_RETURN_IF_ERROR(WriteSection(fd, kTagMeta, &meta_part, 1));
    for (size_t i = 0; i < params.size(); ++i) {
      const int idx = static_cast<int>(i);
      HT_RETURN_IF_ERROR(WriteTensorSection(fd, kTagParam, *params[i]));
      HT_RETURN_IF_ERROR(
          WriteTensorSection(fd, kTagMoment1, adam.moment1(idx)));
      HT_RETURN_IF_ERROR(
          WriteTensorSection(fd, kTagMoment2, adam.moment2(idx)));
    }
    return WriteSection(fd, kTagEnd, nullptr, 0);
  });
}

Status RestoreCheckpoint(const std::string& path, GnnModel* model, Adam* adam,
                         int64_t* epoch) {
  const std::vector<Tensor*> params = model->AllParams();
  if (static_cast<int64_t>(params.size()) != adam->num_params()) {
    return Status::Invalid(
        "RestoreCheckpoint: model/optimizer parameter count mismatch");
  }
  std::string image;
  std::vector<Section> sections;
  HT_RETURN_IF_ERROR(ParseSnapshot(path, &image, &sections));

  // Validate everything against the live model before touching any state:
  // a rejected snapshot must leave the run exactly as it was.
  if (sections.empty() || sections[0].tag != kTagMeta ||
      sections[0].len != kMetaBytes) {
    return Status::DataLoss("checkpoint '" + path + "': missing META");
  }
  WireReader meta(sections[0].payload, sections[0].len);
  const int64_t saved_epoch = meta.I64().ValueOrDie();
  const int64_t adam_step = meta.I64().ValueOrDie();
  const uint32_t num_params = meta.U32().ValueOrDie();
  if (num_params != params.size() ||
      sections.size() != 1 + 3 * params.size()) {
    return Status::DataLoss("checkpoint '" + path +
                            "': parameter count mismatch");
  }
  // Per parameter slot: the rows of the parameter and its two moments.
  std::vector<const unsigned char*> rows(3 * params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const int idx = static_cast<int>(i);
    const std::string what = "param " + std::to_string(i);
    HT_ASSIGN_OR_RETURN(rows[3 * i], CheckTensorSection(sections[1 + 3 * i],
                                                        kTagParam, *params[i],
                                                        what));
    HT_ASSIGN_OR_RETURN(
        rows[3 * i + 1],
        CheckTensorSection(sections[2 + 3 * i], kTagMoment1,
                           adam->moment1(idx), what));
    HT_ASSIGN_OR_RETURN(
        rows[3 * i + 2],
        CheckTensorSection(sections[3 + 3 * i], kTagMoment2,
                           adam->moment2(idx), what));
  }

  for (size_t i = 0; i < params.size(); ++i) {
    const int idx = static_cast<int>(i);
    Tensor* const dst[3] = {params[i], adam->mutable_moment1(idx),
                            adam->mutable_moment2(idx)};
    for (int k = 0; k < 3; ++k) {
      std::memcpy(dst[k]->data(), rows[3 * i + k],
                  static_cast<size_t>(dst[k]->size()) * sizeof(float));
    }
  }
  adam->set_step_count(adam_step);
  *epoch = saved_epoch;
  return Status::OK();
}

Status CheckpointManager::Save(GnnModel* model, const Adam& adam,
                               int64_t epoch) {
  // Rotate the last good snapshot aside first. If the process dies between
  // the rotation and the install, Restore finds only the previous snapshot
  // and resumes one epoch earlier — never from nothing.
  struct stat sb;
  if (::stat(PrimaryPath().c_str(), &sb) == 0) {
    if (::rename(PrimaryPath().c_str(), PreviousPath().c_str()) != 0) {
      return Status::IoError("checkpoint rotate: " +
                             std::string(std::strerror(errno)));
    }
  }
  return SaveCheckpoint(PrimaryPath(), model, adam, epoch);
}

Result<int64_t> CheckpointManager::Restore(GnnModel* model, Adam* adam) {
  int64_t epoch = 0;
  const Status primary = RestoreCheckpoint(PrimaryPath(), model, adam, &epoch);
  if (primary.ok()) return epoch;
  const Status previous =
      RestoreCheckpoint(PreviousPath(), model, adam, &epoch);
  if (previous.ok()) {
    if (degrade_ != nullptr) {
      degrade_->Record(fault::DegradeEvent::kCheckpointFallback,
                       "primary snapshot unusable (" + primary.ToString() +
                           "), resumed from " + PreviousPath());
    }
    return epoch;
  }
  if (primary.IsNotFound() && previous.IsNotFound()) {
    return Status::NotFound("no checkpoint in '" + dir_ + "'");
  }
  return Status::DataLoss("no usable checkpoint in '" + dir_ +
                          "': primary: " + primary.ToString() +
                          "; previous: " + previous.ToString());
}

}  // namespace hongtu
