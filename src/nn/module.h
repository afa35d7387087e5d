// Base class for neural-network modules.
//
// A Module owns named parameter Variables and registers (non-owning
// pointers to) submodules so that parameters() and set_training() recurse
// through the whole model tree.
#ifndef RTGCN_NN_MODULE_H_
#define RTGCN_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/random.h"

namespace rtgcn::nn {

using ag::VarPtr;
using rtgcn::Rng;

/// \brief Base for all trainable components.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its submodules.
  std::vector<VarPtr> Parameters() const {
    std::vector<VarPtr> out;
    CollectParameters(&out);
    return out;
  }

  /// Parameters with hierarchical names ("proj.weight", "m0.cell.bias"),
  /// in the same order as Parameters(). Submodules registered without an
  /// explicit name get a registration-order name ("m0", "m1", ...), so the
  /// manifest is deterministic for any module tree.
  std::vector<std::pair<std::string, VarPtr>> NamedParameters() const {
    std::vector<std::pair<std::string, VarPtr>> out;
    CollectNamedParameters("", &out);
    return out;
  }

  /// Total number of trainable scalars.
  int64_t NumParameters() const {
    int64_t n = 0;
    for (const auto& p : Parameters()) n += p->numel();
    return n;
  }

  /// Switches train/eval mode (affects dropout etc.) recursively.
  void SetTraining(bool training) {
    training_ = training;
    for (Module* m : submodules_) m->SetTraining(training);
  }

  bool training() const { return training_; }

 protected:
  /// Registers a parameter initialized to `init`; returns the Variable.
  VarPtr RegisterParameter(std::string name, Tensor init) {
    auto v = ag::MakeVariable(std::move(init), /*requires_grad=*/true);
    params_.emplace_back(std::move(name), v);
    return v;
  }

  /// Registers a child module (must outlive this module; typically a
  /// member). The unnamed form assigns a registration-order name.
  void RegisterModule(Module* module) {
    std::string name = "m";
    name += std::to_string(submodules_.size());
    RegisterModule(std::move(name), module);
  }
  void RegisterModule(std::string name, Module* module) {
    submodules_.push_back(module);
    submodule_names_.push_back(std::move(name));
  }

 private:
  void CollectParameters(std::vector<VarPtr>* out) const {
    for (const auto& [name, p] : params_) out->push_back(p);
    for (const Module* m : submodules_) m->CollectParameters(out);
  }

  void CollectNamedParameters(
      const std::string& prefix,
      std::vector<std::pair<std::string, VarPtr>>* out) const {
    for (const auto& [name, p] : params_) {
      out->emplace_back(prefix + name, p);
    }
    for (size_t i = 0; i < submodules_.size(); ++i) {
      submodules_[i]->CollectNamedParameters(
          prefix + submodule_names_[i] + ".", out);
    }
  }

  std::vector<std::pair<std::string, VarPtr>> params_;
  std::vector<Module*> submodules_;
  std::vector<std::string> submodule_names_;
  bool training_ = true;
};

}  // namespace rtgcn::nn

#endif  // RTGCN_NN_MODULE_H_
