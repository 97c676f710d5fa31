#ifndef MAGMA_COMMON_MATRIX_H_
#define MAGMA_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

namespace magma::common {

/**
 * Small dense row-major matrix of doubles.
 *
 * This is deliberately a minimal numeric substrate: it backs the CMA-ES
 * covariance adaptation, the PCA projection used by the Fig. 10 harness,
 * and the RL network parameter blocks. It is not meant to compete with a
 * BLAS; all matrices in this project are at most a few hundred rows.
 */
class Matrix {
  public:
    Matrix() = default;
    Matrix(size_t rows, size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    /** Identity matrix of size n. */
    static Matrix identity(size_t n);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    double& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
    double at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    /** Matrix product this * other. Dimensions must agree. */
    Matrix multiply(const Matrix& other) const;

    /** Matrix-vector product. v.size() must equal cols(). */
    std::vector<double> multiply(const std::vector<double>& v) const;

    /** Element-wise in-place scale. */
    void scale(double s);

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

/**
 * Eigendecomposition of a symmetric matrix via the cyclic Jacobi method.
 *
 * On return `eigenvalues[i]` pairs with column i of `eigenvectors`, sorted
 * in descending eigenvalue order. The input must be symmetric; asymmetry
 * below 1e-9 is tolerated and symmetrized away.
 */
struct EigenSym {
    std::vector<double> eigenvalues;
    Matrix eigenvectors;  // columns are unit eigenvectors
};

/**
 * Run Jacobi sweeps until off-diagonal mass is below tolerance or the sweep
 * limit is reached. Suitable for the <=300x300 matrices this project uses.
 */
EigenSym jacobiEigenSym(const Matrix& a, int max_sweeps = 64,
                        double tol = 1e-12);

}  // namespace magma::common

#endif  // MAGMA_COMMON_MATRIX_H_
