// Immutable frozen-model snapshots for the inference runtime.
//
// A ModelSnapshot owns one ServableModel whose parameters were loaded from
// a checkpoint (validated by the CRC/manifest machinery in nn/serialize.h)
// and answers forward-only scoring queries. Snapshots are immutable after
// Load and shared by std::shared_ptr, so the registry can atomically
// publish a new one while in-flight queries keep scoring against the
// version they started with (RCU-style reclamation: the last reference
// frees the old model). A forward writes no model state, so any number of
// threads score one snapshot at once, with no lock.
#ifndef RTGCN_SERVE_SNAPSHOT_H_
#define RTGCN_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "harness/gradient_predictor.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace rtgcn::serve {

/// \brief Minimal contract a model must satisfy to be served: expose its
/// parameter tree (for checkpoint loading) and score one day's features.
class ServableModel {
 public:
  virtual ~ServableModel() = default;

  /// Parameter tree the checkpoint is loaded into.
  virtual nn::Module* module() = 0;

  /// Forward-only ranking scores [N] for features [T, N, D]. Called with
  /// gradient taping disabled and the module in eval mode, and safe to call
  /// concurrently: implementations write neither parameters nor any other
  /// model state.
  virtual Tensor Score(const Tensor& features) = 0;
};

/// Builds a fresh, architecture-complete (but untrained) servable model;
/// the registry invokes it once per checkpoint load.
using ServableFactory = std::function<std::unique_ptr<ServableModel>()>;

/// Adapts any harness::GradientPredictor (RT-GCN and every gradient-trained
/// baseline) into a ServableModel via its forward-only Score path.
std::unique_ptr<ServableModel> WrapPredictor(
    std::unique_ptr<harness::GradientPredictor> predictor);

/// \brief An immutable model version: weights frozen from one checkpoint.
class ModelSnapshot {
 public:
  /// Builds a model with `factory`, loads `path` into it (CRC/manifest
  /// validated; any corruption fails the load without publishing), and
  /// freezes it in eval mode under `version`.
  static Result<std::shared_ptr<const ModelSnapshot>> Load(
      const ServableFactory& factory, const std::string& path,
      int64_t version);

  /// Checkpoint epoch this snapshot was promoted from (strictly increasing
  /// across promotions within one registry).
  int64_t version() const { return version_; }
  const std::string& source_path() const { return source_path_; }
  int64_t num_parameters() const { return num_parameters_; }

  /// Forward-only scores [N] for features [T, N, D], under NoGradGuard.
  /// Safe to call concurrently: callers run their forwards side by side,
  /// each bit-identical to a serial forward. The caller that wins the
  /// shared thread pool data-parallelizes; the others run inline.
  Tensor Score(const Tensor& features) const;

 private:
  ModelSnapshot(std::unique_ptr<ServableModel> model, std::string path,
                int64_t version);

  std::unique_ptr<ServableModel> model_;
  std::string source_path_;
  int64_t version_;
  int64_t num_parameters_ = 0;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_SNAPSHOT_H_
