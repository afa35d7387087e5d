// Crash-safe model checkpointing.
//
// One on-disk format, version 2 after the "RTGC" magic: a record stream
// with a named-parameter manifest, a CRC32 per record, and optional
// training-state records (optimizer moments, RNG state, epoch/day cursor)
// so a killed training run can resume bit-identically. Writes go through
// WriteFileAtomic (temp + fsync + rename), so a crash mid-save never
// corrupts an existing checkpoint. Any other version fails the load.
//
// Loads stage everything, validate everything (names, shapes, CRCs,
// truncation), and only then commit — they either fully succeed or return
// an error leaving the module untouched.
#ifndef RTGCN_NN_SERIALIZE_H_
#define RTGCN_NN_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "autograd/optimizer.h"
#include "common/random.h"
#include "common/status.h"
#include "nn/module.h"

namespace rtgcn::nn {

/// \brief Everything beyond the weights needed to resume training exactly
/// where it stopped. `epoch` counts completed epochs; `day_cursor` counts
/// completed days inside the current epoch (0 at an epoch boundary);
/// `day_order` is the training-day permutation in effect at save time, so
/// the resumed run replays the identical shuffle sequence.
struct TrainingState {
  ag::OptimizerState optimizer;
  Rng::State rng;
  int64_t epoch = 0;
  int64_t day_cursor = 0;
  std::vector<int64_t> day_order;
  bool has_optimizer = false;
  bool has_rng = false;
  bool has_trainer = false;
};

/// Atomically writes a v2 checkpoint of `module` (and, when `state` is
/// non-null, its training state) to `path`.
Status SaveCheckpoint(const Module& module, const std::string& path,
                      const TrainingState* state = nullptr);

/// Loads a checkpoint into `module`; fills `state` (when non-null) from
/// the training-state records the file carries. Names and
/// shapes must match the module's NamedParameters(). On any error —
/// truncation, CRC mismatch, name/shape mismatch — the module and `state`
/// are left untouched.
Status LoadCheckpoint(Module* module, const std::string& path,
                      TrainingState* state = nullptr);

/// Writes all parameters of `module` to `path` (weights only).
Status SaveParameters(const Module& module, const std::string& path);

/// Loads parameters saved by SaveParameters / SaveCheckpoint.
/// The module must have the same architecture (parameter names and shapes).
Status LoadParameters(Module* module, const std::string& path);

}  // namespace rtgcn::nn

#endif  // RTGCN_NN_SERIALIZE_H_
