// Kernel backend selection: CPUID detection, RTGCN_KERNEL resolution and
// publication of the choice to the global metrics registry.
#include "tensor/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "common/logging.h"
#include "obs/registry.h"

namespace rtgcn::kernels {
namespace {

std::atomic<const KernelSet*> g_active{nullptr};
std::atomic<int> g_avx2_override{-1};
std::mutex g_init_mu;

void PublishSelection(const KernelSet* ks) {
  auto& reg = obs::Registry::Global();
  reg.GetGauge("tensor.kernels.avx2_supported")
      ->Set(CpuSupportsAvx2() ? 1.0 : 0.0);
  reg.GetGauge("tensor.kernels.backend")
      ->Set(ks == &Avx2() ? static_cast<double>(Backend::kAvx2)
                          : static_cast<double>(Backend::kReference));
  reg.GetCounter(std::string("tensor.kernels.selected.") + ks->name)
      ->Increment();
}

// Stores and publishes; callers hold no lock (SetBackend is the public
// entry, the lazy init path serializes through g_init_mu itself).
const KernelSet* Select(Backend backend) {
  const KernelSet* ks =
      backend == Backend::kAvx2 ? &Avx2() : &Reference();
  g_active.store(ks, std::memory_order_release);
  PublishSelection(ks);
  return ks;
}

const KernelSet* InitFromEnv() {
  const char* env = std::getenv("RTGCN_KERNEL");
  const std::string name = env != nullptr ? env : "auto";
  Result<Backend> resolved = ResolveBackend(name);
  if (!resolved.ok()) {
    RTGCN_LOG(Warning) << "RTGCN_KERNEL=" << name << " is invalid ("
                       << resolved.status().message()
                       << "); falling back to auto";
    resolved = ResolveBackend("auto");
  }
  return Select(resolved.ValueOrDie());
}

}  // namespace

bool CpuSupportsAvx2() {
  const int forced = g_avx2_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  return Avx2().supported();
}

void OverrideCpuSupportsAvx2ForTest(int forced) {
  g_avx2_override.store(forced, std::memory_order_relaxed);
}

const std::vector<const KernelSet*>& AllKernels() {
  static const std::vector<const KernelSet*> all = {&Reference(), &Avx2()};
  return all;
}

Result<Backend> ResolveBackend(const std::string& name) {
  if (name == "reference") return Backend::kReference;
  if (name == "avx2") {
    // Graceful degradation: an explicit avx2 request on a CPU without it
    // resolves to the backend that can actually run.
    return CpuSupportsAvx2() ? Backend::kAvx2 : Backend::kReference;
  }
  if (name == "auto" || name.empty()) {
    return CpuSupportsAvx2() ? Backend::kAvx2 : Backend::kReference;
  }
  return Status::InvalidArgument("unknown kernel backend \"", name,
                                 "\" (expected reference|avx2|auto)");
}

const KernelSet& Active() {
  const KernelSet* ks = g_active.load(std::memory_order_acquire);
  if (ks != nullptr) return *ks;
  std::lock_guard<std::mutex> lock(g_init_mu);
  ks = g_active.load(std::memory_order_acquire);
  if (ks == nullptr) ks = InitFromEnv();
  return *ks;
}

Backend ActiveBackend() {
  return &Active() == &Avx2() ? Backend::kAvx2 : Backend::kReference;
}

void SetBackend(Backend backend) {
  if (backend == Backend::kAvx2 && !CpuSupportsAvx2()) {
    RTGCN_LOG(Warning)
        << "avx2 kernels requested but this CPU/build does not support "
           "AVX2+FMA; using reference";
    backend = Backend::kReference;
  }
  Select(backend);
}

void ReinitFromEnvForTest() {
  g_active.store(nullptr, std::memory_order_release);
}

}  // namespace rtgcn::kernels
