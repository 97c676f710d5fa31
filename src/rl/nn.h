#ifndef MAGMA_RL_NN_H_
#define MAGMA_RL_NN_H_

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace magma::rl {

/**
 * Minimal dense neural-network substrate with manual backpropagation,
 * sized for the paper's RL agents ("policy and critic networks composed
 * by 3 MLP layers with 128 nodes", Table IV).
 *
 * Batched: the forward pass takes a (batch x in) matrix — one row per
 * environment step — which keeps full-episode A2C/PPO updates cheap.
 */
class Linear {
  public:
    Linear(int in, int out, common::Rng& rng);

    /** y = x W^T + b. Caches x for backward. */
    common::Matrix forward(const common::Matrix& x);

    /**
     * Given dL/dy for the cached forward, accumulate dL/dW, dL/db and
     * return dL/dx.
     */
    common::Matrix backward(const common::Matrix& grad_out);

    void zeroGrad();

    /** Flattened parameter / gradient views (weights then biases). */
    std::vector<double*> paramPtrs();
    std::vector<double*> gradPtrs();

  private:
    int in_, out_;
    common::Matrix w_;       // out x in
    std::vector<double> b_;  // out
    common::Matrix gw_;
    std::vector<double> gb_;
    common::Matrix cached_x_;
};

/**
 * MLP with ReLU between layers and a linear head. The layout
 * {in, 128, 128, 128, out} realizes Table IV's 3x128 networks.
 */
class Mlp {
  public:
    Mlp(const std::vector<int>& dims, uint64_t seed);

    /** Batched forward; caches intermediate activations. */
    common::Matrix forward(const common::Matrix& x);

    /** Batched backward for the cached forward; accumulates grads. */
    void backward(const common::Matrix& grad_out);

    void zeroGrad();
    std::vector<double*> paramPtrs();
    std::vector<double*> gradPtrs();

  private:
    std::vector<Linear> layers_;
    std::vector<common::Matrix> relu_in_;  // pre-activation caches
};

}  // namespace magma::rl

#endif  // MAGMA_RL_NN_H_
