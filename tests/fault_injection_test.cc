// Fault-injection suite for the checkpoint subsystem.
//
// Proves the transactional-load guarantee: for a checkpoint mutilated by
// truncation at every byte boundary, by single-bit flips over the whole
// file, or by a simulated crash between temp-file write and rename, loading
// either fully succeeds or returns an error leaving the target module (and
// any TrainingState output) byte-identical to its prior state.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <memory>

#include "autograd/optimizer.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "harness/checkpoint.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "serve/registry.h"
#include "tensor/init.h"

namespace rtgcn {
namespace {

std::vector<Tensor> SnapshotParams(const nn::Module& module) {
  std::vector<Tensor> out;
  for (const auto& p : module.Parameters()) out.push_back(p->value.Clone());
  return out;
}

::testing::AssertionResult ParamsByteIdentical(
    const nn::Module& module, const std::vector<Tensor>& snapshot) {
  const auto params = module.Parameters();
  if (params.size() != snapshot.size()) {
    return ::testing::AssertionFailure() << "parameter count changed";
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i]->value.shape() != snapshot[i].shape()) {
      return ::testing::AssertionFailure() << "shape of parameter " << i;
    }
    if (std::memcmp(params[i]->value.data(), snapshot[i].data(),
                    static_cast<size_t>(snapshot[i].numel()) *
                        sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "parameter " << i << " bytes differ";
    }
  }
  return ::testing::AssertionSuccess();
}

void RemoveDirRecursive(const std::string& dir) {
  auto entries = ListDirectory(dir);
  if (entries.ok()) {
    for (const std::string& name : entries.ValueOrDie()) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

// Nested module so fault injection exercises hierarchical manifest names.
class TwoLinear : public nn::Module {
 public:
  TwoLinear(int64_t mid, Rng* rng) : l1_(3, mid, rng), l2_(mid, 2, rng) {
    RegisterModule("l1", &l1_);
    RegisterModule("l2", &l2_);
  }
  nn::Linear l1_, l2_;
};

// Writes a full-fat v2 checkpoint (weights + optimizer + RNG + trainer
// records) and returns its bytes.
std::string WriteFullCheckpoint(const nn::Module& module,
                                const std::string& path) {
  std::vector<ag::VarPtr> params = module.Parameters();
  ag::Adam adam(params, 1e-3f);
  Rng grads(5);
  for (int i = 0; i < 3; ++i) {
    for (auto& p : params) p->grad = RandomUniform(p->shape(), -1, 1, &grads);
    adam.Step();
  }
  nn::TrainingState state;
  state.optimizer = adam.State();
  state.has_optimizer = true;
  Rng rng(77);
  rng.Gaussian();
  state.rng = rng.GetState();
  state.has_rng = true;
  state.epoch = 4;
  state.day_order = {8, 9, 10, 11, 12, 13};
  state.has_trainer = true;
  EXPECT_TRUE(nn::SaveCheckpoint(module, path, &state).ok());
  auto bytes = ReadWholeFile(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ValueOrDie();
}

// Plain (non-atomic, non-fsynced) write for injected corrupt files — the
// loops below write thousands of them and their durability is irrelevant.
void WritePlain(const std::string& path, const char* data, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data, static_cast<std::streamsize>(size));
  ASSERT_TRUE(out.good());
}

nn::TrainingState SentinelState() {
  nn::TrainingState state;
  state.epoch = -12345;  // sentinel: must survive a failed load untouched
  return state;
}

TEST(FaultInjectionTest, TruncationAtEveryByteBoundaryIsAtomic) {
  Rng rng(1);
  TwoLinear source(4, &rng);
  const std::string dir = "/tmp/rtgcn_fault_trunc";
  RemoveDirRecursive(dir);
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string good_path = dir + "/full.rtgcn";
  const std::string bytes = WriteFullCheckpoint(source, good_path);
  ASSERT_GT(bytes.size(), 64u);

  Rng rng2(2);
  TwoLinear target(4, &rng2);
  const auto before = SnapshotParams(target);
  const std::string path = dir + "/truncated.rtgcn";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WritePlain(path, bytes.data(), len);
    nn::TrainingState state = SentinelState();
    const Status status = nn::LoadCheckpoint(&target, path, &state);
    ASSERT_FALSE(status.ok()) << "prefix of " << len << " bytes loaded";
    ASSERT_TRUE(ParamsByteIdentical(target, before)) << "len=" << len;
    ASSERT_EQ(state.epoch, -12345) << "state mutated at len=" << len;
    ASSERT_FALSE(state.has_optimizer || state.has_rng || state.has_trainer)
        << "len=" << len;
  }
  // The untruncated file still loads and fills every record.
  nn::TrainingState state = SentinelState();
  ASSERT_TRUE(nn::LoadCheckpoint(&target, good_path, &state).ok());
  EXPECT_TRUE(state.has_optimizer && state.has_rng && state.has_trainer);
  EXPECT_EQ(state.epoch, 4);
  EXPECT_EQ(state.day_order, (std::vector<int64_t>{8, 9, 10, 11, 12, 13}));
  EXPECT_TRUE(ParamsByteIdentical(target, SnapshotParams(source)));
  RemoveDirRecursive(dir);
}

TEST(FaultInjectionTest, EverySingleBitFlipIsDetected) {
  Rng rng(3);
  TwoLinear source(3, &rng);
  const std::string dir = "/tmp/rtgcn_fault_bitflip";
  RemoveDirRecursive(dir);
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string bytes =
      WriteFullCheckpoint(source, dir + "/full.rtgcn");

  Rng rng2(4);
  TwoLinear target(3, &rng2);
  const auto before = SnapshotParams(target);
  const std::string path = dir + "/flipped.rtgcn";
  std::string mutated = bytes;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      WritePlain(path, mutated.data(), mutated.size());
      nn::TrainingState state = SentinelState();
      const Status status = nn::LoadCheckpoint(&target, path, &state);
      // Every single-bit flip is detectable: header and sizes are bounds-
      // checked, payloads and the CRC field itself are covered by CRC32
      // (which detects all 1-bit errors), and unknown record tags are hard
      // errors rather than skipped records.
      ASSERT_FALSE(status.ok())
          << "flip of bit " << bit << " at byte " << i << " loaded";
      ASSERT_TRUE(ParamsByteIdentical(target, before))
          << "byte " << i << " bit " << bit;
      ASSERT_EQ(state.epoch, -12345);
    }
    mutated[i] = bytes[i];
  }
  RemoveDirRecursive(dir);
}

TEST(FaultInjectionTest, CrashBetweenTempWriteAndRenameIsHarmless) {
  const std::string dir = "/tmp/rtgcn_fault_crash";
  RemoveDirRecursive(dir);
  harness::CheckpointManager manager({dir, /*every=*/1, /*keep=*/0});
  ASSERT_TRUE(manager.Init().ok());

  Rng rng(9);
  TwoLinear model(4, &rng);
  nn::TrainingState state;
  state.epoch = 1;
  state.has_trainer = true;
  ASSERT_TRUE(manager.Save(model, state).ok());
  const auto good = SnapshotParams(model);

  // Simulate a crash during the *next* save: WriteFileAtomic had written
  // part of the temp file but the rename never happened. The leftover
  // `.tmp.<pid>` file must be invisible to checkpoint discovery.
  const std::string next = manager.CheckpointPath(2);
  std::ofstream(next + ".tmp.4242", std::ios::binary)
      << "partial checkpoint bytes cut off by a cra";

  auto epochs = manager.ListCheckpoints();
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(epochs.ValueOrDie(), (std::vector<int64_t>{1}));

  Rng rng2(10);
  TwoLinear restored(4, &rng2);
  nn::TrainingState loaded;
  ASSERT_TRUE(manager.LoadLatest(&restored, &loaded).ok());
  EXPECT_EQ(loaded.epoch, 1);
  EXPECT_TRUE(ParamsByteIdentical(restored, good));
  RemoveDirRecursive(dir);
}

TEST(FaultInjectionTest, WriteFileAtomicReplacesAndPreservesOnError) {
  const std::string dir = "/tmp/rtgcn_fault_atomic";
  RemoveDirRecursive(dir);
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/file";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  auto content = ReadWholeFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.ValueOrDie(), "second");
  // A failed write (unreachable parent directory) must not leave temp junk
  // behind in an existing directory or touch the destination.
  EXPECT_FALSE(WriteFileAtomic(dir + "/no/such/dir/file", "x").ok());
  auto entries = ListDirectory(dir);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.ValueOrDie(), (std::vector<std::string>{"file"}));
  RemoveDirRecursive(dir);
}

// ---------------------------------------------------------------------------
// The retired v1 format fails the load with a clear status
// ---------------------------------------------------------------------------

TEST(CheckpointVersionTest, V1FileFailsTheLoadAndLeavesModuleUntouched) {
  Rng rng(21);
  TwoLinear target(4, &rng);
  const auto before = SnapshotParams(target);
  // A v1 header as the old writer laid it out: "RTGC" magic, version 1,
  // then the parameter count the anonymous tensor list followed.
  const uint32_t header[2] = {0x52544743u, 1u};
  const uint64_t count = target.Parameters().size();
  std::string bytes(reinterpret_cast<const char*>(header), sizeof(header));
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  const std::string path = "/tmp/rtgcn_v1_retired.bin";
  WritePlain(path, bytes.data(), bytes.size());

  const Status status = nn::LoadParameters(&target, path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unsupported checkpoint version 1"),
            std::string::npos)
      << status.ToString();
  EXPECT_TRUE(ParamsByteIdentical(target, before));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Shape fields checkpoint_fuzz_test reached past the CRC
// ---------------------------------------------------------------------------

TEST(CheckpointShapeTest, ExtremeTensorShapesFailCleanly) {
  // A CRC-valid tensor record "w" with no data. [2^31, 2^31] floats are
  // 2^64 bytes, which wrapped the size check to 0, so the load aborted
  // allocating the tensor; an empty tensor handed memcpy a null pointer
  // (UBSan nonnull-attribute).
  Rng rng(22);
  TwoLinear target(4, &rng);
  const auto before = SnapshotParams(target);
  const std::string path = "/tmp/rtgcn_extreme_shape.bin";
  for (const auto& dims : std::vector<std::vector<uint64_t>>{
           {1ull << 31, 1ull << 31}, {1ull << 20, 1ull << 20, 1ull << 20},
           {0}}) {
    std::string payload;
    const auto u64 = [&payload](uint64_t v) {
      payload.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    u64(1);  // name length
    payload += "w";
    u64(dims.size());
    for (uint64_t d : dims) u64(d);
    const uint32_t head[3] = {0x52544743u, 2u, 0x54454E53u};  // .., 'TENS'
    const uint64_t size = payload.size();
    const uint32_t crc = Crc32(payload);
    std::string bytes(reinterpret_cast<const char*>(head), sizeof(head));
    bytes.append(reinterpret_cast<const char*>(&size), sizeof(size));
    bytes += payload;
    bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    WritePlain(path, bytes.data(), bytes.size());
    const Status status = nn::LoadParameters(&target, path);
    ASSERT_FALSE(status.ok());
    if (dims.size() > 1) {
      EXPECT_NE(status.ToString().find("implausible dimension"),
                std::string::npos)
          << status.ToString();
    }
    EXPECT_TRUE(ParamsByteIdentical(target, before));
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serving registry (serve/registry.h): a corrupt or truncated newest
// checkpoint must be skipped — and counted in serve::Metrics — while the
// previously promoted snapshot keeps serving unchanged scores.
// ---------------------------------------------------------------------------

class LinearServable : public serve::ServableModel {
 public:
  LinearServable() : rng_(3), linear_(3, 1, &rng_) {}
  nn::Module* module() override { return &linear_; }
  Tensor Score(const Tensor& features) override {
    return linear_.Forward(ag::Constant(features))->value;
  }

 private:
  Rng rng_;
  nn::Linear linear_;
};

TEST(FaultInjectionTest, RegistrySkipsTruncatedNewestAndKeepsServing) {
  const std::string dir = "/tmp/rtgcn_fault_registry";
  RemoveDirRecursive(dir);
  harness::CheckpointManager manager({dir, 1, 0});
  ASSERT_TRUE(manager.Init().ok());

  // One good checkpoint, published as version 1.
  std::string good_bytes;
  {
    LinearServable model;
    ASSERT_TRUE(
        nn::SaveParameters(*model.module(), manager.CheckpointPath(1)).ok());
    auto bytes = ReadWholeFile(manager.CheckpointPath(1));
    ASSERT_TRUE(bytes.ok());
    good_bytes = bytes.ValueOrDie();
  }
  serve::Metrics metrics;
  serve::ModelRegistry registry(
      {dir, /*reload_interval_ms=*/0},
      [] { return std::make_unique<LinearServable>(); }, &metrics);
  ASSERT_TRUE(registry.Start().ok());
  ASSERT_EQ(registry.CurrentVersion(), 1);

  Rng rng(9);
  const Tensor features = RandomUniform({4, 3}, -1, 1, &rng);
  const Tensor before = registry.Current()->Score(features);

  // A newer-but-mutilated checkpoint (several truncation points, then a
  // bit flip) must never be promoted and never dent the served scores.
  const std::string newest = manager.CheckpointPath(2);
  const std::vector<size_t> cuts = {0, 1, good_bytes.size() / 2,
                                    good_bytes.size() - 1};
  for (const size_t cut : cuts) {
    WritePlain(newest, good_bytes.data(), cut);
    EXPECT_FALSE(registry.PollOnce());
    EXPECT_EQ(registry.CurrentVersion(), 1);
    const Tensor after = registry.Current()->Score(features);
    EXPECT_EQ(std::memcmp(before.data(), after.data(),
                          sizeof(float) * static_cast<size_t>(before.numel())),
              0);
  }
  {
    std::string flipped = good_bytes;
    flipped[flipped.size() / 2] =
        static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
    WritePlain(newest, flipped.data(), flipped.size());
    EXPECT_FALSE(registry.PollOnce());
    EXPECT_EQ(registry.CurrentVersion(), 1);
  }
  EXPECT_EQ(metrics.reload_failure.Value(),
            static_cast<uint64_t>(cuts.size() + 1));
  EXPECT_EQ(metrics.reload_success.Value(), 1u);

  // Once the newest checkpoint is whole again, it is promoted.
  WritePlain(newest, good_bytes.data(), good_bytes.size());
  EXPECT_TRUE(registry.PollOnce());
  EXPECT_EQ(registry.CurrentVersion(), 2);
  EXPECT_EQ(metrics.reload_success.Value(), 2u);
  registry.Stop();
  RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace rtgcn
