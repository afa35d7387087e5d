// Base class for gradient-trained ranking models: implements the shared
// epoch loop (one "batch" = all N stocks of one prediction day, as in the
// paper and the RSR reference implementation) with Adam + weight decay.
#ifndef RTGCN_HARNESS_GRADIENT_PREDICTOR_H_
#define RTGCN_HARNESS_GRADIENT_PREDICTOR_H_

#include <memory>
#include <string>

#include "autograd/optimizer.h"
#include "autograd/variable.h"
#include "common/status.h"
#include "harness/predictor.h"
#include "nn/module.h"

namespace rtgcn::harness {

/// \brief Epoch-based trainer over a nn::Module-backed scorer.
class GradientPredictor : public StockPredictor {
 public:
  void Fit(const market::WindowDataset& data,
           const std::vector<int64_t>& train_days,
           const TrainOptions& options) override;

  Tensor Predict(const market::WindowDataset& data, int64_t day) override;

  /// Forward-only scores [N] for one day's features [T, N, D], computed
  /// under NoGradGuard. The module must already be in eval mode (Fit and
  /// Predict leave it there; serve::ModelSnapshot sets it at load). Score
  /// writes no predictor state, so concurrent calls are safe. This is the
  /// serving entry point: unlike Predict it takes raw features, so the
  /// caller controls where they come from.
  Tensor Score(const Tensor& features);

  /// Atomically writes a weights-only v2 checkpoint of the module — the
  /// immutable serving artifact a serve::ModelRegistry promotes. Name the
  /// file with harness::CheckpointManager::CheckpointPath so the registry's
  /// directory scan can order it by version.
  Status ExportSnapshot(const std::string& path);

  /// The trainable module, for external checkpointing of a predictor built
  /// through the catalog factory (nn::SaveCheckpoint / LoadCheckpoint).
  nn::Module* mutable_module() { return module(); }

 protected:
  /// The trainable module (for parameter collection and train/eval mode).
  virtual nn::Module* module() = 0;

  /// Scores [N] for one day's features [T, N, D]. `rng` drives dropout.
  virtual ag::VarPtr Forward(const Tensor& features, Rng* rng) = 0;

  /// Scalar training loss for one day. Default: combined loss of Eq. (9)
  /// via alpha(); subclasses override for other objectives (pure MSE, ...).
  virtual ag::VarPtr Loss(const ag::VarPtr& scores, const Tensor& labels);

  /// One optimizer update on one day's sample; returns the loss value.
  /// Default: forward → Loss → backward → clip → step. Models with richer
  /// inner loops (adversarial training, RL) override this.
  virtual double TrainStep(const Tensor& features, const Tensor& labels,
                           ag::Optimizer* optimizer,
                           const TrainOptions& options, Rng* rng);

  /// Ranking-loss balance (Eq. 9); models that train with pure regression
  /// return 0.
  virtual float alpha() const { return 0.1f; }

  /// The divergence supervisor active during Fit (null outside Fit or when
  /// supervision is disabled). TrainStep overrides consult it before
  /// committing an optimizer step.
  TrainingGuard* guard() { return guard_.get(); }

 private:
  std::unique_ptr<TrainingGuard> guard_;
};

}  // namespace rtgcn::harness

#endif  // RTGCN_HARNESS_GRADIENT_PREDICTOR_H_
