// StockPredictor adapter for the core RT-GCN model (all three strategies
// plus the R-Conv / T-Conv ablations of Table VII).
#ifndef RTGCN_BASELINES_RTGCN_PREDICTOR_H_
#define RTGCN_BASELINES_RTGCN_PREDICTOR_H_

#include <memory>
#include <string>

#include "core/rtgcn.h"
#include "harness/gradient_predictor.h"

namespace rtgcn::baselines {

/// \brief RT-GCN wrapped for the benchmark harness.
class RtGcnPredictor : public harness::GradientPredictor {
 public:
  /// `relations` is read only here: each RT-GCN layer copies it into its
  /// own CSR, so the caller may free it afterwards.
  RtGcnPredictor(const graph::RelationTensor& relations,
                 core::RtGcnConfig config, float alpha, uint64_t seed,
                 std::string name_override = "");

  std::string name() const override;

  const core::RtGcnModel& model() const { return *model_; }
  /// Mutable access for checkpoint loading (nn::LoadParameters).
  core::RtGcnModel* mutable_model() { return model_.get(); }

 protected:
  nn::Module* module() override { return model_.get(); }
  ag::VarPtr Forward(const Tensor& features, Rng* rng) override;
  float alpha() const override { return alpha_; }

 private:
  core::RtGcnConfig config_;
  float alpha_;
  std::string name_override_;
  std::unique_ptr<core::RtGcnModel> model_;
};

}  // namespace rtgcn::baselines

#endif  // RTGCN_BASELINES_RTGCN_PREDICTOR_H_
