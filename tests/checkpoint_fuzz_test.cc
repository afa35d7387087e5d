// Seeded, fixed-iteration fuzz test of the checkpoint reader
// (nn::LoadCheckpoint, nn/serialize.h). A full checkpoint (weights,
// optimizer, RNG and trainer records) is split into its records, and each
// iteration applies 1-3 mutations beyond fault_injection_test's single-bit
// flips and truncations:
//  * write extreme values (0, 2^31, 2^48, 2^63, UINT64_MAX, ...) into one
//    or two length, count, rank or dimension fields of a record's payload
//    and re-seal the record's CRC, so the values reach the payload parsers;
//  * write them into integer fields of the encoded file (record sizes);
//  * duplicate, drop or swap records; flip a byte; truncate the file.
// Invariant: the load never crashes, and when it fails the module and the
// caller's TrainingState are byte-identical to before the call.
//
// An integer field is found without a second parser: it is any 8-byte
// window that holds a value below 2^16. Names and float data almost never
// do; lengths, counts, ranks and dimensions always do.
//
// Only raw std::mt19937_64 output is used (no distributions), so every run
// on every platform checks the same files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "autograd/optimizer.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "tensor/init.h"

namespace rtgcn {
namespace {

constexpr int kIterations = 20000;
constexpr size_t kHeaderBytes = 8;  // magic + version

using Record = std::pair<uint32_t, std::string>;  // tag, payload

std::vector<Record> SplitRecords(const std::string& file) {
  std::vector<Record> records;
  for (size_t at = kHeaderBytes; at < file.size();) {
    uint32_t tag = 0;
    uint64_t size = 0;
    std::memcpy(&tag, file.data() + at, sizeof(tag));
    std::memcpy(&size, file.data() + at + 4, sizeof(size));
    records.emplace_back(tag, file.substr(at + 12, size));
    at += 12 + size + 4;  // tag, size, payload, CRC
  }
  return records;
}

std::string Encode(const std::string& header,
                   const std::vector<Record>& records) {
  std::string out = header;
  for (const auto& [tag, payload] : records) {
    const uint64_t size = payload.size();
    const uint32_t crc = Crc32(payload);
    out.append(reinterpret_cast<const char*>(&tag), sizeof(tag));
    out.append(reinterpret_cast<const char*>(&size), sizeof(size));
    out += payload;
    out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  return out;
}

class Fuzzer {
 public:
  explicit Fuzzer(uint64_t seed) : gen_(seed) {}

  uint64_t Below(uint64_t n) { return gen_() % n; }

  // Writes extreme values over one or two integer fields of `bytes` (two,
  // so that a shape's dimensions can overflow together).
  void OverwriteFields(std::string* bytes) {
    static constexpr uint64_t kExtremes[] = {
        0, 1, 255, 1ull << 16, (1ull << 31) - 1, 1ull << 31, 1ull << 32,
        1ull << 48, (1ull << 48) + 1, 1ull << 62, 1ull << 63, ~0ull};
    std::vector<size_t> fields;
    for (size_t at = 0; at + 8 <= bytes->size(); ++at) {
      uint64_t v = 0;
      std::memcpy(&v, bytes->data() + at, sizeof(v));
      if (v < (1ull << 16)) fields.push_back(at);
    }
    for (uint64_t n = fields.empty() ? 0 : 1 + Below(2); n > 0; --n) {
      const uint64_t pick = Below(std::size(kExtremes) + 1);
      const uint64_t v = pick < std::size(kExtremes) ? kExtremes[pick] : gen_();
      std::memcpy(bytes->data() + fields[Below(fields.size())], &v, sizeof(v));
    }
  }

  std::string Mutate(const std::string& header, std::vector<Record> records) {
    int raw_fields = 0;
    bool flip = false, truncate = false;
    for (uint64_t round = 1 + Below(3); round > 0; --round) {
      const auto any = [&] { return Below(records.size()); };
      switch (Below(7)) {
        case 0:
        case 1:
          OverwriteFields(&records[any()].second);
          break;
        case 2:
          ++raw_fields;
          break;
        case 3: {
          const Record copy = records[any()];
          records.insert(records.begin() + any(), copy);
          break;
        }
        case 4:
          if (records.size() > 1) records.erase(records.begin() + any());
          break;
        case 5:
          std::swap(records[any()], records[any()]);
          break;
        default:
          (Below(2) == 0 ? flip : truncate) = true;
      }
    }
    std::string file = Encode(header, records);
    for (; raw_fields > 0; --raw_fields) OverwriteFields(&file);
    if (flip) file[Below(file.size())] ^= static_cast<char>(1 + Below(255));
    if (truncate) file.resize(Below(file.size()));
    return file;
  }

 private:
  std::mt19937_64 gen_;
};

std::string ParamBytes(const nn::Module& module) {
  std::string out;
  for (const auto& p : module.Parameters()) {
    for (int64_t d : p->value.shape()) out += std::to_string(d) + ",";
    out.append(reinterpret_cast<const char*>(p->value.data()),
               static_cast<size_t>(p->value.numel()) * sizeof(float));
  }
  return out;
}

TEST(CheckpointFuzzTest, MutatedCheckpointsFailCleanly) {
  const std::string path = ::testing::TempDir() + "checkpoint_fuzz_" +
                           std::to_string(::getpid()) + ".rtgcn";
  Rng rng(3);
  nn::Linear module(3, 2, &rng);
  ag::Adam adam(module.Parameters(), 1e-3f);
  for (auto& p : module.Parameters()) {
    p->grad = RandomUniform(p->shape(), -1, 1, &rng);
  }
  adam.Step();
  nn::TrainingState full;
  full.optimizer = adam.State();
  full.rng = rng.GetState();
  full.epoch = 4;
  full.day_cursor = 2;
  full.day_order = {8, 9, 10, 11};
  full.has_optimizer = full.has_rng = full.has_trainer = true;
  ASSERT_TRUE(nn::SaveCheckpoint(module, path, &full).ok());
  const std::string clean = ReadWholeFile(path).ValueOrDie();
  const std::string header = clean.substr(0, kHeaderBytes);
  const std::vector<Record> records = SplitRecords(clean);
  ASSERT_EQ(records.size(), 7u);  // manifest, 2 tensors, 3 state, end
  ASSERT_EQ(Encode(header, records), clean);

  Fuzzer fuzz(0x5eed);
  int loaded = 0;
  for (int it = 0; it < kIterations; ++it) {
    const std::string file = fuzz.Mutate(header, records);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << file;
    const std::string before = ParamBytes(module);
    nn::TrainingState state;  // a sentinel no valid load produces
    state.epoch = 99;
    state.day_order = {1, 2, 3};
    const Status status = nn::LoadCheckpoint(&module, path, &state);
    if (status.ok()) {  // e.g. swapped state records still load
      ++loaded;
      continue;
    }
    ASSERT_EQ(ParamBytes(module), before)
        << "iteration " << it << ": " << status.ToString();
    ASSERT_TRUE(state.epoch == 99 && state.day_cursor == 0 &&
                (state.day_order == std::vector<int64_t>{1, 2, 3}) &&
                !state.has_optimizer && !state.has_rng && !state.has_trainer)
        << "iteration " << it << ": " << status.ToString();
  }
  // The mutations get past the CRC: most files fail, a few still load.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kIterations / 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtgcn
