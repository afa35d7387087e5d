// Kernel backend selection: RTGCN_KERNEL resolution, CPUID fallback,
// FlagSet choice validation and metrics publication.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/flags.h"
#include "kernel_checker.h"
#include "obs/registry.h"
#include "tensor/kernels/kernels.h"

namespace rtgcn {
namespace {

// Restores RTGCN_KERNEL and the lazily-initialized selection after each
// test so ordering does not leak between cases.
class DispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("RTGCN_KERNEL");
    had_env_ = env != nullptr;
    if (had_env_) saved_env_ = env;
    prev_ = kernels::ActiveBackend();
  }
  void TearDown() override {
    if (had_env_) {
      ::setenv("RTGCN_KERNEL", saved_env_.c_str(), 1);
    } else {
      ::unsetenv("RTGCN_KERNEL");
    }
    kernels::OverrideCpuSupportsAvx2ForTest(-1);
    kernels::SetBackend(prev_);
  }

  bool had_env_ = false;
  std::string saved_env_;
  kernels::Backend prev_ = kernels::Backend::kReference;
};

TEST_F(DispatchTest, ResolveBackendKnownNames) {
  ASSERT_TRUE(kernels::ResolveBackend("reference").ok());
  EXPECT_EQ(kernels::ResolveBackend("reference").ValueOrDie(),
            kernels::Backend::kReference);
  ASSERT_TRUE(kernels::ResolveBackend("auto").ok());
  ASSERT_TRUE(kernels::ResolveBackend("").ok());
  ASSERT_TRUE(kernels::ResolveBackend("avx2").ok());
}

TEST_F(DispatchTest, ResolveBackendRejectsUnknown) {
  for (const char* bad :
       {"sse", "AVX2", "avx512", "fastest", "ref", "not-a-backend"}) {
    Result<kernels::Backend> r = kernels::ResolveBackend(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.status().message().find("unknown kernel backend"),
              std::string::npos)
        << r.status().message();
  }
}

TEST_F(DispatchTest, AutoPicksAvx2WhenSupported) {
  kernels::OverrideCpuSupportsAvx2ForTest(1);
  EXPECT_EQ(kernels::ResolveBackend("auto").ValueOrDie(),
            kernels::Backend::kAvx2);
  kernels::OverrideCpuSupportsAvx2ForTest(0);
  EXPECT_EQ(kernels::ResolveBackend("auto").ValueOrDie(),
            kernels::Backend::kReference);
}

TEST_F(DispatchTest, ExplicitAvx2FallsBackGracefullyWithoutCpuSupport) {
  kernels::OverrideCpuSupportsAvx2ForTest(0);
  // Both the name resolver and the enum setter degrade to reference
  // instead of crashing on unsupported hardware.
  EXPECT_EQ(kernels::ResolveBackend("avx2").ValueOrDie(),
            kernels::Backend::kReference);
  kernels::SetBackend(kernels::Backend::kAvx2);
  EXPECT_EQ(kernels::ActiveBackend(), kernels::Backend::kReference);
}

TEST_F(DispatchTest, EnvVarForcesReference) {
  ::setenv("RTGCN_KERNEL", "reference", 1);
  kernels::ReinitFromEnvForTest();
  EXPECT_EQ(kernels::ActiveBackend(), kernels::Backend::kReference);
  EXPECT_STREQ(kernels::Active().name, "reference");
}

TEST_F(DispatchTest, EnvVarAutoMatchesCpuSupport) {
  ::setenv("RTGCN_KERNEL", "auto", 1);
  kernels::ReinitFromEnvForTest();
  const kernels::Backend expect = kernels::CpuSupportsAvx2()
                                      ? kernels::Backend::kAvx2
                                      : kernels::Backend::kReference;
  EXPECT_EQ(kernels::ActiveBackend(), expect);
}

TEST_F(DispatchTest, InvalidEnvVarFallsBackToAuto) {
  ::setenv("RTGCN_KERNEL", "warp-drive", 1);
  kernels::ReinitFromEnvForTest();
  // Must not abort; lands on whatever auto resolves to.
  const kernels::Backend expect = kernels::CpuSupportsAvx2()
                                      ? kernels::Backend::kAvx2
                                      : kernels::Backend::kReference;
  EXPECT_EQ(kernels::ActiveBackend(), expect);
}

TEST_F(DispatchTest, SelectionPublishedToRegistry) {
  kernels::SetBackend(kernels::Backend::kReference);
  auto& reg = obs::Registry::Global();
  EXPECT_EQ(reg.GetGauge("tensor.kernels.backend")->Value(),
            static_cast<double>(kernels::Backend::kReference));
  const uint64_t before =
      reg.GetCounter("tensor.kernels.selected.reference")->Value();
  kernels::SetBackend(kernels::Backend::kReference);
  EXPECT_EQ(reg.GetCounter("tensor.kernels.selected.reference")->Value(),
            before + 1);
  if (kernels::CpuSupportsAvx2()) {
    kernels::SetBackend(kernels::Backend::kAvx2);
    EXPECT_EQ(reg.GetGauge("tensor.kernels.backend")->Value(),
              static_cast<double>(kernels::Backend::kAvx2));
    EXPECT_EQ(reg.GetGauge("tensor.kernels.avx2_supported")->Value(), 1.0);
  }
}

TEST_F(DispatchTest, AllKernelsListsReferenceFirst) {
  const auto& all = kernels::AllKernels();
  ASSERT_GE(all.size(), 2u);
  EXPECT_EQ(all[0], &kernels::Reference());
  EXPECT_STREQ(all[0]->name, "reference");
  EXPECT_STREQ(all[1]->name, "avx2");
  EXPECT_TRUE(all[0]->supported());  // reference runs everywhere
}

TEST_F(DispatchTest, ScopedKernelBackendRestores) {
  kernels::SetBackend(kernels::Backend::kReference);
  {
    ScopedKernelBackend scope(kernels::CpuSupportsAvx2()
                                  ? kernels::Backend::kAvx2
                                  : kernels::Backend::kReference);
  }
  EXPECT_EQ(kernels::ActiveBackend(), kernels::Backend::kReference);
}

// ---------------------------------------------------------------------------
// FlagSet choice validation, on a backend-name flag
// ---------------------------------------------------------------------------

TEST(FlagSetChoice, AcceptsListedValues) {
  std::string kernel = "auto";
  FlagSet fs;
  fs.RegisterChoice("kernel", &kernel, {"reference", "avx2", "auto"},
                    "kernel backend");
  const char* argv[] = {"bin", "--kernel=reference"};
  ASSERT_TRUE(fs.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_EQ(kernel, "reference");
}

TEST(FlagSetChoice, RejectsUnlistedValues) {
  std::string kernel = "auto";
  FlagSet fs;
  fs.RegisterChoice("kernel", &kernel, {"reference", "avx2", "auto"},
                    "kernel backend");
  const char* argv[] = {"bin", "--kernel=sse42"};
  Status s = fs.Parse(2, const_cast<char**>(argv));
  ASSERT_FALSE(s.ok());
  // The error names the accepted set so typos are self-diagnosing.
  EXPECT_NE(s.message().find("reference|avx2|auto"), std::string::npos)
      << s.message();
  EXPECT_EQ(kernel, "auto");  // bound variable untouched on failure
}

TEST(FlagSetChoice, UsageListsChoices) {
  std::string kernel = "auto";
  FlagSet fs;
  fs.RegisterChoice("kernel", &kernel, {"reference", "avx2", "auto"},
                    "kernel backend");
  EXPECT_NE(fs.Usage().find("one of reference|avx2|auto"),
            std::string::npos);
}

}  // namespace
}  // namespace rtgcn
