// Recurrent cells used by the LSTM-based baselines (LSTM, Rank_LSTM, RSR,
// A-LSTM, SFM).
#ifndef RTGCN_NN_RNN_H_
#define RTGCN_NN_RNN_H_

#include <utility>

#include "nn/linear.h"
#include "nn/module.h"

namespace rtgcn::nn {

/// \brief Single LSTM cell (combined gate projection).
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng);

  struct State {
    VarPtr h;  // [B, H]
    VarPtr c;  // [B, H]
  };

  State InitialState(int64_t batch) const;

  /// One step: x [B, input_size] -> new state.
  State Forward(const VarPtr& x, const State& state) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  VarPtr w_ih_;  // [input, 4H], gate order (i, f, g, o)
  VarPtr w_hh_;  // [H, 4H]
  VarPtr bias_;  // [4H]
};

/// \brief Multi-step LSTM over a [T, B, D] sequence.
class Lstm : public Module {
 public:
  Lstm(int64_t input_size, int64_t hidden_size, Rng* rng);

  /// Returns the final hidden state [B, H].
  VarPtr ForwardLast(const VarPtr& x) const;

  int64_t hidden_size() const { return cell_.hidden_size(); }

 private:
  LstmCell cell_;
};

}  // namespace rtgcn::nn

#endif  // RTGCN_NN_RNN_H_
