#include "nn/serialize.h"

#include <cstdint>
#include <cstring>

#include "common/crc32.h"
#include "common/file_util.h"

namespace rtgcn::nn {

namespace {

constexpr uint32_t kMagic = 0x52544743;  // "RTGC"
constexpr uint32_t kVersion = 2;

// v2 record tags. Unknown tags are a hard error (a v3 that adds records
// must bump the version), so a bit flip in a tag can never silently drop a
// record.
constexpr uint32_t kTagManifest = 0x4D414E49;  // 'MANI'
constexpr uint32_t kTagTensor = 0x54454E53;    // 'TENS'
constexpr uint32_t kTagOptimizer = 0x4F505453; // 'OPTS'
constexpr uint32_t kTagRng = 0x524E4753;       // 'RNGS'
constexpr uint32_t kTagTrainer = 0x54524E52;   // 'TRNR'
constexpr uint32_t kTagEnd = 0x454E4421;       // 'END!'

constexpr int64_t kMaxRank = 64;  // sanity bounds on serialized shapes
constexpr uint64_t kMaxElements = uint64_t{1} << 48;

// ---------------------------------------------------------------------------
// Little buffer writer
// ---------------------------------------------------------------------------

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendI64(std::string* out, int64_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendF64(std::string* out, double v) { AppendRaw(out, &v, sizeof(v)); }
void AppendU8(std::string* out, uint8_t v) { AppendRaw(out, &v, sizeof(v)); }

void AppendString(std::string* out, const std::string& s) {
  AppendU64(out, s.size());
  out->append(s);
}

void AppendTensor(std::string* out, const Tensor& t) {
  AppendU64(out, static_cast<uint64_t>(t.ndim()));
  for (int64_t d : t.shape()) AppendU64(out, static_cast<uint64_t>(d));
  AppendRaw(out, t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

void AppendRecord(std::string* out, uint32_t tag, const std::string& payload) {
  AppendU32(out, tag);
  AppendU64(out, payload.size());
  out->append(payload);
  AppendU32(out, Crc32(payload));
}

// ---------------------------------------------------------------------------
// Bounds-checked buffer reader
// ---------------------------------------------------------------------------

class Cursor {
 public:
  Cursor(const char* data, size_t size) : p_(data), remaining_(size) {}

  size_t remaining() const { return remaining_; }

  bool ReadRaw(void* out, size_t size) {
    if (remaining_ < size) return false;
    if (size == 0) return true;  // `out` of an empty tensor may be null
    std::memcpy(out, p_, size);
    p_ += size;
    remaining_ -= size;
    return true;
  }

  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadI64(int64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }

  bool ReadString(std::string* s) {
    uint64_t len = 0;
    if (!ReadU64(&len) || len > remaining_) return false;
    s->assign(p_, len);
    p_ += len;
    remaining_ -= len;
    return true;
  }

  /// Returns a sub-cursor over the next `size` bytes and advances past them.
  bool Slice(size_t size, Cursor* sub) {
    if (remaining_ < size) return false;
    *sub = Cursor(p_, size);
    p_ += size;
    remaining_ -= size;
    return true;
  }

  const char* data() const { return p_; }

 private:
  const char* p_;
  size_t remaining_;
};

Status ReadShape(Cursor* in, Shape* shape, const std::string& path) {
  uint64_t rank = 0;
  if (!in->ReadU64(&rank)) return Status::IoError("truncated ", path);
  if (rank > kMaxRank) {
    return Status::InvalidArgument("implausible tensor rank ", rank, " in ",
                                   path);
  }
  shape->clear();
  shape->reserve(rank);
  // The element count is bounded as it grows, so neither it nor its byte
  // size can overflow, however many large dimensions a corrupt file holds.
  uint64_t elements = 1;
  for (uint64_t d = 0; d < rank; ++d) {
    uint64_t dim = 0;
    if (!in->ReadU64(&dim)) return Status::IoError("truncated ", path);
    if (dim > kMaxElements || (dim > 0 && elements > kMaxElements / dim)) {
      return Status::InvalidArgument("implausible dimension ", dim, " in ",
                                     path);
    }
    elements *= dim;
    shape->push_back(static_cast<int64_t>(dim));
  }
  return Status::OK();
}

Status ReadTensor(Cursor* in, Tensor* out, const std::string& path) {
  Shape shape;
  RTGCN_RETURN_NOT_OK(ReadShape(in, &shape, path));
  const uint64_t numel = static_cast<uint64_t>(ShapeNumel(shape));
  if (numel * sizeof(float) > in->remaining()) {
    return Status::IoError("truncated tensor data in ", path);
  }
  Tensor value(shape);
  if (!in->ReadRaw(value.data(), numel * sizeof(float))) {
    return Status::IoError("truncated tensor data in ", path);
  }
  *out = value;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// v2 writer
// ---------------------------------------------------------------------------

std::string EncodeCheckpoint(const Module& module,
                             const TrainingState* state) {
  const auto named = module.NamedParameters();
  std::string out;
  uint32_t header[2] = {kMagic, kVersion};
  AppendRaw(&out, header, sizeof(header));

  std::string manifest;
  AppendU64(&manifest, named.size());
  for (const auto& [name, p] : named) {
    AppendString(&manifest, name);
    AppendU64(&manifest, static_cast<uint64_t>(p->value.ndim()));
    for (int64_t d : p->value.shape()) {
      AppendU64(&manifest, static_cast<uint64_t>(d));
    }
  }
  AppendRecord(&out, kTagManifest, manifest);

  for (const auto& [name, p] : named) {
    std::string payload;
    AppendString(&payload, name);
    AppendTensor(&payload, p->value);
    AppendRecord(&out, kTagTensor, payload);
  }

  if (state != nullptr && state->has_optimizer) {
    std::string payload;
    AppendString(&payload, state->optimizer.type);
    AppendI64(&payload, state->optimizer.step);
    AppendU64(&payload, state->optimizer.slots.size());
    for (const Tensor& slot : state->optimizer.slots) {
      AppendTensor(&payload, slot);
    }
    AppendRecord(&out, kTagOptimizer, payload);
  }
  if (state != nullptr && state->has_rng) {
    std::string payload;
    for (uint64_t s : state->rng.s) AppendU64(&payload, s);
    AppendU8(&payload, state->rng.has_gauss ? 1 : 0);
    AppendF64(&payload, state->rng.cached_gauss);
    AppendRecord(&out, kTagRng, payload);
  }
  if (state != nullptr && state->has_trainer) {
    std::string payload;
    AppendI64(&payload, state->epoch);
    AppendI64(&payload, state->day_cursor);
    AppendU64(&payload, state->day_order.size());
    for (int64_t day : state->day_order) AppendI64(&payload, day);
    AppendRecord(&out, kTagTrainer, payload);
  }

  AppendRecord(&out, kTagEnd, "");
  return out;
}

// ---------------------------------------------------------------------------
// v2 loader
// ---------------------------------------------------------------------------

Status ParsePayloadManifest(Cursor in, const std::string& path,
                            std::vector<std::pair<std::string, Shape>>* out) {
  uint64_t count = 0;
  if (!in.ReadU64(&count)) return Status::IoError("truncated ", path);
  // Each entry needs at least a name length and a rank (16 bytes).
  if (count > in.remaining() / 16 + 1) {
    return Status::InvalidArgument("implausible manifest count ", count,
                                   " in ", path);
  }
  out->clear();
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    if (!in.ReadString(&name)) return Status::IoError("truncated ", path);
    Shape shape;
    RTGCN_RETURN_NOT_OK(ReadShape(&in, &shape, path));
    out->emplace_back(std::move(name), std::move(shape));
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in manifest of ", path);
  }
  return Status::OK();
}

Status ParsePayloadTensor(Cursor in, const std::string& path,
                          std::pair<std::string, Tensor>* out) {
  if (!in.ReadString(&out->first)) return Status::IoError("truncated ", path);
  RTGCN_RETURN_NOT_OK(ReadTensor(&in, &out->second, path));
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in tensor record of ",
                                   path);
  }
  return Status::OK();
}

Status ParsePayloadOptimizer(Cursor in, const std::string& path,
                             ag::OptimizerState* out) {
  if (!in.ReadString(&out->type)) return Status::IoError("truncated ", path);
  if (!in.ReadI64(&out->step)) return Status::IoError("truncated ", path);
  uint64_t num_slots = 0;
  if (!in.ReadU64(&num_slots)) return Status::IoError("truncated ", path);
  if (num_slots > in.remaining() / 8 + 1) {
    return Status::InvalidArgument("implausible optimizer slot count ",
                                   num_slots, " in ", path);
  }
  out->slots.clear();
  for (uint64_t i = 0; i < num_slots; ++i) {
    Tensor slot;
    RTGCN_RETURN_NOT_OK(ReadTensor(&in, &slot, path));
    out->slots.push_back(std::move(slot));
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in optimizer record of ",
                                   path);
  }
  return Status::OK();
}

Status ParsePayloadRng(Cursor in, const std::string& path, Rng::State* out) {
  for (uint64_t& s : out->s) {
    if (!in.ReadU64(&s)) return Status::IoError("truncated ", path);
  }
  uint8_t has_gauss = 0;
  if (!in.ReadU8(&has_gauss) || has_gauss > 1) {
    return Status::InvalidArgument("bad RNG record in ", path);
  }
  out->has_gauss = has_gauss != 0;
  if (!in.ReadF64(&out->cached_gauss)) {
    return Status::IoError("truncated ", path);
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in RNG record of ", path);
  }
  return Status::OK();
}

Status ParsePayloadTrainer(Cursor in, const std::string& path,
                           TrainingState* out) {
  if (!in.ReadI64(&out->epoch) || !in.ReadI64(&out->day_cursor)) {
    return Status::IoError("truncated ", path);
  }
  if (out->epoch < 0 || out->day_cursor < 0) {
    return Status::InvalidArgument("negative trainer cursor in ", path);
  }
  uint64_t num_days = 0;
  if (!in.ReadU64(&num_days)) return Status::IoError("truncated ", path);
  if (num_days * 8 != in.remaining()) {
    return Status::InvalidArgument("bad trainer record size in ", path);
  }
  out->day_order.clear();
  out->day_order.reserve(num_days);
  for (uint64_t i = 0; i < num_days; ++i) {
    int64_t day = 0;
    if (!in.ReadI64(&day)) return Status::IoError("truncated ", path);
    out->day_order.push_back(day);
  }
  return Status::OK();
}

Status LoadV2(Cursor in, const std::string& path, Module* module,
              TrainingState* state) {
  // Stage 1: walk the record stream, CRC-check every record, and stage all
  // content. Nothing of the module or `state` is touched until everything
  // has validated.
  std::vector<std::pair<std::string, Shape>> manifest;
  bool have_manifest = false;
  std::vector<std::pair<std::string, Tensor>> tensors;
  TrainingState staged;
  bool ended = false;

  while (!ended) {
    uint32_t tag = 0;
    uint64_t size = 0;
    if (!in.ReadU32(&tag) || !in.ReadU64(&size)) {
      return Status::IoError("truncated record header in ", path);
    }
    // Written to avoid overflow for a corrupt size near UINT64_MAX.
    if (size > in.remaining() ||
        in.remaining() - size < sizeof(uint32_t)) {
      return Status::IoError("truncated record in ", path);
    }
    Cursor payload(nullptr, 0);
    in.Slice(size, &payload);
    const uint32_t expected_crc = Crc32(payload.data(), size);
    uint32_t stored_crc = 0;
    in.ReadU32(&stored_crc);
    if (stored_crc != expected_crc) {
      return Status::IoError("CRC mismatch in record of ", path);
    }
    switch (tag) {
      case kTagManifest:
        if (have_manifest) {
          return Status::InvalidArgument("duplicate manifest in ", path);
        }
        RTGCN_RETURN_NOT_OK(ParsePayloadManifest(payload, path, &manifest));
        have_manifest = true;
        break;
      case kTagTensor: {
        std::pair<std::string, Tensor> entry;
        RTGCN_RETURN_NOT_OK(ParsePayloadTensor(payload, path, &entry));
        tensors.push_back(std::move(entry));
        break;
      }
      case kTagOptimizer:
        if (staged.has_optimizer) {
          return Status::InvalidArgument("duplicate optimizer record in ",
                                         path);
        }
        RTGCN_RETURN_NOT_OK(
            ParsePayloadOptimizer(payload, path, &staged.optimizer));
        staged.has_optimizer = true;
        break;
      case kTagRng:
        if (staged.has_rng) {
          return Status::InvalidArgument("duplicate RNG record in ", path);
        }
        RTGCN_RETURN_NOT_OK(ParsePayloadRng(payload, path, &staged.rng));
        staged.has_rng = true;
        break;
      case kTagTrainer:
        if (staged.has_trainer) {
          return Status::InvalidArgument("duplicate trainer record in ", path);
        }
        RTGCN_RETURN_NOT_OK(ParsePayloadTrainer(payload, path, &staged));
        staged.has_trainer = true;
        break;
      case kTagEnd:
        if (payload.remaining() != 0) {
          return Status::InvalidArgument("non-empty end record in ", path);
        }
        ended = true;
        break;
      default:
        return Status::InvalidArgument("unknown record tag in ", path);
    }
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after end record in ",
                                   path);
  }
  if (!have_manifest) {
    return Status::InvalidArgument("missing manifest in ", path);
  }

  // Stage 2: validate against the module.
  const auto named = module->NamedParameters();
  if (manifest.size() != named.size()) {
    return Status::InvalidArgument("checkpoint has ", manifest.size(),
                                   " parameters, module has ", named.size());
  }
  if (tensors.size() != manifest.size()) {
    return Status::InvalidArgument("checkpoint has ", tensors.size(),
                                   " tensor records for a manifest of ",
                                   manifest.size());
  }
  for (size_t i = 0; i < named.size(); ++i) {
    const auto& [man_name, man_shape] = manifest[i];
    if (man_name != named[i].first) {
      return Status::InvalidArgument("parameter ", i, " name mismatch: '",
                                     man_name, "' vs module '",
                                     named[i].first, "'");
    }
    if (man_shape != named[i].second->value.shape()) {
      return Status::InvalidArgument(
          "parameter '", man_name, "' shape mismatch: checkpoint ",
          ShapeToString(man_shape), " vs module ",
          ShapeToString(named[i].second->value.shape()));
    }
    const auto& [ten_name, ten_value] = tensors[i];
    if (ten_name != man_name || ten_value.shape() != man_shape) {
      return Status::InvalidArgument("tensor record ", i,
                                     " disagrees with manifest in ", path);
    }
  }

  // Stage 3: commit.
  for (size_t i = 0; i < named.size(); ++i) {
    named[i].second->value = tensors[i].second;
  }
  if (state != nullptr) *state = std::move(staged);
  return Status::OK();
}

}  // namespace

Status SaveCheckpoint(const Module& module, const std::string& path,
                      const TrainingState* state) {
  return WriteFileAtomic(path, EncodeCheckpoint(module, state));
}

Status LoadCheckpoint(Module* module, const std::string& path,
                      TrainingState* state) {
  std::string content;
  {
    auto read = ReadWholeFile(path);
    if (!read.ok()) return read.status();
    content = read.MoveValueOrDie();
  }
  Cursor in(content.data(), content.size());
  uint32_t header[2];
  if (!in.ReadRaw(header, sizeof(header)) || header[0] != kMagic) {
    return Status::InvalidArgument(path, " is not an RT-GCN checkpoint");
  }
  if (header[1] != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version ",
                                   header[1]);
  }
  return LoadV2(in, path, module, state);
}

Status SaveParameters(const Module& module, const std::string& path) {
  return SaveCheckpoint(module, path, nullptr);
}

Status LoadParameters(Module* module, const std::string& path) {
  return LoadCheckpoint(module, path, nullptr);
}

}  // namespace rtgcn::nn
