#include "nn/rnn.h"

#include "autograd/ops.h"
#include "tensor/init.h"

namespace rtgcn::nn {

namespace {

// Slices gate block `g` of width H out of a [B, kH] pre-activation.
ag::VarPtr Gate(const VarPtr& z, int64_t gate_index, int64_t hidden) {
  return ag::SliceOp(z, 1, gate_index * hidden, (gate_index + 1) * hidden);
}

}  // namespace

// ---------------------------------------------------------------------------
// LSTM
// ---------------------------------------------------------------------------

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  w_ih_ = RegisterParameter(
      "w_ih", XavierUniform({input_size, 4 * hidden_size}, input_size,
                            hidden_size, rng));
  w_hh_ = RegisterParameter(
      "w_hh", XavierUniform({hidden_size, 4 * hidden_size}, hidden_size,
                            hidden_size, rng));
  // Forget-gate bias starts at 1 to ease gradient flow early in training.
  Tensor b = Tensor::Zeros({4 * hidden_size});
  for (int64_t i = hidden_size; i < 2 * hidden_size; ++i) b.data()[i] = 1.0f;
  bias_ = RegisterParameter("bias", b);
}

LstmCell::State LstmCell::InitialState(int64_t batch) const {
  return {ag::Constant(Tensor::Zeros({batch, hidden_size_})),
          ag::Constant(Tensor::Zeros({batch, hidden_size_}))};
}

LstmCell::State LstmCell::Forward(const VarPtr& x, const State& state) const {
  RTGCN_CHECK_EQ(x->value.dim(1), input_size_);
  VarPtr z = ag::Add(ag::Add(ag::MatMul(x, w_ih_), ag::MatMul(state.h, w_hh_)),
                     bias_);
  VarPtr i = ag::Sigmoid(Gate(z, 0, hidden_size_));
  VarPtr f = ag::Sigmoid(Gate(z, 1, hidden_size_));
  VarPtr g = ag::Tanh(Gate(z, 2, hidden_size_));
  VarPtr o = ag::Sigmoid(Gate(z, 3, hidden_size_));
  VarPtr c = ag::Add(ag::Mul(f, state.c), ag::Mul(i, g));
  VarPtr h = ag::Mul(o, ag::Tanh(c));
  return {h, c};
}

Lstm::Lstm(int64_t input_size, int64_t hidden_size, Rng* rng)
    : cell_(input_size, hidden_size, rng) {
  RegisterModule(&cell_);
}

ag::VarPtr Lstm::ForwardLast(const VarPtr& x) const {
  RTGCN_CHECK_EQ(x->value.ndim(), 3);
  const int64_t t_len = x->value.dim(0);
  const int64_t batch = x->value.dim(1);
  const int64_t d = x->value.dim(2);
  auto state = cell_.InitialState(batch);
  for (int64_t t = 0; t < t_len; ++t) {
    VarPtr xt = ag::Reshape(ag::SliceOp(x, 0, t, t + 1), {batch, d});
    state = cell_.Forward(xt, state);
  }
  return state.h;
}

}  // namespace rtgcn::nn
