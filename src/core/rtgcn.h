// RT-GCN: relation-temporal graph convolutional network (paper §IV).
//
// The model operates on the relation-temporal graph G_RT: node features
// X ∈ R^{T×N×D} (T time-steps, N stocks, D features). One RT-GCN layer is
//   relational graph convolution (one of three relation-aware strategies,
//   §IV-B) followed by causal temporal convolution (§IV-C).
// Average pooling over the remaining temporal dimension and a fully
// connected scorer produce one ranking score per stock (§IV-D).
#ifndef RTGCN_CORE_RTGCN_H_
#define RTGCN_CORE_RTGCN_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/relation_tensor.h"
#include "graph/sparse.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/temporal_conv.h"

namespace rtgcn::core {

/// Relation-aware propagation strategies (paper §IV-B).
enum class Strategy {
  kUniform,        ///< Eq. (3): binary edge mask, all relations equal
  kWeight,         ///< Eq. (4): learned per-relation-type weights
  kTimeSensitive,  ///< Eq. (5): scaled dot-product × relation importance
};

std::string StrategyName(Strategy s);

/// How the remaining temporal dimension is reduced to one representation
/// per stock (§IV-D uses average pooling; kLast keeps only the newest
/// position and exists for the pooling ablation bench).
enum class TemporalPooling { kMean, kLast };

/// \brief Hyperparameters (paper §V-B4 defaults).
struct RtGcnConfig {
  Strategy strategy = Strategy::kTimeSensitive;
  int64_t window = 15;             ///< T, tuned over {5, 10, 15, 20}
  int64_t num_features = 4;        ///< D, close + 5/10/20-day MAs
  int64_t relational_filters = 16; ///< F
  int64_t temporal_kernel = 3;
  int64_t temporal_stride = 4;     ///< compresses T (receptive-field trick)
  int64_t num_layers = 1;          ///< paper uses 1 (more overfits)
  float dropout = 0.1f;
  TemporalPooling pooling = TemporalPooling::kMean;

  // Ablation switches (Table VII): R-Conv keeps only the relational
  // module, T-Conv keeps only the temporal module.
  bool use_relational = true;
  bool use_temporal = true;
};

/// \brief One relation-temporal layer: relational conv then temporal conv.
class RtGcnLayer : public nn::Module {
 public:
  RtGcnLayer(const graph::RelationTensor& relations, const RtGcnConfig& config,
             int64_t in_features, int64_t out_features, Rng* rng);

  /// x: [T, N, in] -> [T', N, out] (T' shrinks by the temporal stride).
  ag::VarPtr Forward(const ag::VarPtr& x, Rng* rng) const;

  int64_t out_length(int64_t in_length) const;

  /// Dense [N, N] propagation matrix this layer applies to input x
  /// [T, N, in] (time-averaged for the time-sensitive strategy; undefined
  /// for the T-Conv ablation, which has no relational conv). Recomputes
  /// only the relational op, without gradients, so Forward never pays for
  /// this diagnostic and never writes layer state. Used by the Figure 8
  /// case study.
  Tensor Propagation(const Tensor& x) const;

 private:
  /// Applies the strategy's relational convolution and its ReLU:
  /// [T, N, in] -> [T, N, out].
  ag::VarPtr RelationalConv(const ag::VarPtr& x) const;

  RtGcnConfig config_;
  int64_t in_features_;
  int64_t out_features_;

  graph::CsrPtr csr_;       // Â in CSR form, O(E)
  ag::VarPtr theta_;        // relational filters Θ [in, out]
  ag::VarPtr relation_w_;   // per-type weights w [K] (W/T strategies)
  ag::VarPtr relation_b_;   // bias b [1]           (W/T strategies)
  std::unique_ptr<nn::TemporalConvBlock> temporal_;
};

/// \brief Full ranking model: stacked RT-GCN layers + pooling + FC scorer.
class RtGcnModel : public nn::Module {
 public:
  RtGcnModel(const graph::RelationTensor& relations, const RtGcnConfig& config,
             Rng* rng);

  /// x: [T, N, D] -> ranking scores [N].
  ag::VarPtr Forward(const ag::VarPtr& x, Rng* rng) const;

  const RtGcnConfig& config() const { return config_; }

  /// Layer-1 propagation matrix for raw features [T, N, D] (Figure 8
  /// edge-weight visualization); see RtGcnLayer::Propagation.
  Tensor Propagation(const Tensor& features) const {
    return layers_.front()->Propagation(features);
  }

 private:
  RtGcnConfig config_;
  std::vector<std::unique_ptr<RtGcnLayer>> layers_;
  std::unique_ptr<nn::Linear> scorer_;
};

}  // namespace rtgcn::core

#endif  // RTGCN_CORE_RTGCN_H_
