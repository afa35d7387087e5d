#include "serve/snapshot.h"

#include <utility>

#include "autograd/variable.h"
#include "nn/serialize.h"

namespace rtgcn::serve {

namespace {

// GradientPredictor adapter: serves whatever Fit trained (or a checkpoint
// loaded into the predictor's module) through the forward-only Score path.
class PredictorServable : public ServableModel {
 public:
  explicit PredictorServable(
      std::unique_ptr<harness::GradientPredictor> predictor)
      : predictor_(std::move(predictor)) {}

  nn::Module* module() override { return predictor_->mutable_module(); }

  Tensor Score(const Tensor& features) override {
    return predictor_->Score(features);
  }

 private:
  std::unique_ptr<harness::GradientPredictor> predictor_;
};

}  // namespace

std::unique_ptr<ServableModel> WrapPredictor(
    std::unique_ptr<harness::GradientPredictor> predictor) {
  return std::make_unique<PredictorServable>(std::move(predictor));
}

ModelSnapshot::ModelSnapshot(std::unique_ptr<ServableModel> model,
                             std::string path, int64_t version)
    : model_(std::move(model)),
      source_path_(std::move(path)),
      version_(version) {
  nn::Module* mod = model_->module();
  mod->SetTraining(false);
  num_parameters_ = mod->NumParameters();
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Load(
    const ServableFactory& factory, const std::string& path,
    int64_t version) {
  std::unique_ptr<ServableModel> model = factory();
  if (!model || !model->module()) {
    return Status::InvalidArgument("servable factory returned no model");
  }
  // Loads are transactional and CRC-validated; a corrupt or truncated
  // checkpoint fails here and the half-built model is simply discarded.
  RTGCN_RETURN_NOT_OK(nn::LoadParameters(model->module(), path));
  return std::shared_ptr<const ModelSnapshot>(
      new ModelSnapshot(std::move(model), path, version));
}

Tensor ModelSnapshot::Score(const Tensor& features) const {
  ag::NoGradGuard no_grad;
  return model_->Score(features);
}

}  // namespace rtgcn::serve
