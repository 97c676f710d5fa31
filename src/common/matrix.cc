#include "common/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace magma::common {

Matrix
Matrix::identity(size_t n)
{
    Matrix m(n, n, 0.0);
    for (size_t i = 0; i < n; ++i)
        m.at(i, i) = 1.0;
    return m;
}

Matrix
Matrix::multiply(const Matrix& other) const
{
    assert(cols_ == other.rows_);
    Matrix out(rows_, other.cols_, 0.0);
    for (size_t i = 0; i < rows_; ++i) {
        for (size_t k = 0; k < cols_; ++k) {
            double a = at(i, k);
            if (a == 0.0)
                continue;
            for (size_t j = 0; j < other.cols_; ++j)
                out.at(i, j) += a * other.at(k, j);
        }
    }
    return out;
}

std::vector<double>
Matrix::multiply(const std::vector<double>& v) const
{
    assert(v.size() == cols_);
    std::vector<double> out(rows_, 0.0);
    for (size_t i = 0; i < rows_; ++i) {
        double acc = 0.0;
        for (size_t j = 0; j < cols_; ++j)
            acc += at(i, j) * v[j];
        out[i] = acc;
    }
    return out;
}

void
Matrix::scale(double s)
{
    for (double& x : data_)
        x *= s;
}

namespace {

/** One Jacobi rotation zeroing a(p,q); updates eigenvector accumulator. */
void
rotate(Matrix& a, Matrix& v, size_t p, size_t q)
{
    double apq = a.at(p, q);
    if (apq == 0.0)
        return;
    double app = a.at(p, p);
    double aqq = a.at(q, q);
    double theta = (aqq - app) / (2.0 * apq);
    double t = (theta >= 0 ? 1.0 : -1.0) /
               (std::abs(theta) + std::sqrt(theta * theta + 1.0));
    double c = 1.0 / std::sqrt(t * t + 1.0);
    double s = t * c;

    size_t n = a.rows();
    for (size_t k = 0; k < n; ++k) {
        double akp = a.at(k, p);
        double akq = a.at(k, q);
        a.at(k, p) = c * akp - s * akq;
        a.at(k, q) = s * akp + c * akq;
    }
    for (size_t k = 0; k < n; ++k) {
        double apk = a.at(p, k);
        double aqk = a.at(q, k);
        a.at(p, k) = c * apk - s * aqk;
        a.at(q, k) = s * apk + c * aqk;
    }
    for (size_t k = 0; k < n; ++k) {
        double vkp = v.at(k, p);
        double vkq = v.at(k, q);
        v.at(k, p) = c * vkp - s * vkq;
        v.at(k, q) = s * vkp + c * vkq;
    }
}

double
offDiagNorm(const Matrix& a)
{
    double sum = 0.0;
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            if (i != j)
                sum += a.at(i, j) * a.at(i, j);
    return std::sqrt(sum);
}

}  // namespace

EigenSym
jacobiEigenSym(const Matrix& input, int max_sweeps, double tol)
{
    assert(input.rows() == input.cols());
    size_t n = input.rows();

    // Symmetrize to absorb tiny numeric asymmetry from covariance updates.
    Matrix a(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            a.at(i, j) = 0.5 * (input.at(i, j) + input.at(j, i));

    Matrix v = Matrix::identity(n);
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (offDiagNorm(a) < tol)
            break;
        for (size_t p = 0; p + 1 < n; ++p)
            for (size_t q = p + 1; q < n; ++q)
                rotate(a, v, p, q);
    }

    EigenSym out;
    out.eigenvalues.resize(n);
    for (size_t i = 0; i < n; ++i)
        out.eigenvalues[i] = a.at(i, i);

    // Sort descending by eigenvalue, permuting eigenvector columns.
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return out.eigenvalues[x] > out.eigenvalues[y];
    });

    EigenSym sorted;
    sorted.eigenvalues.resize(n);
    sorted.eigenvectors = Matrix(n, n);
    for (size_t j = 0; j < n; ++j) {
        sorted.eigenvalues[j] = out.eigenvalues[order[j]];
        for (size_t i = 0; i < n; ++i)
            sorted.eigenvectors.at(i, j) = v.at(i, order[j]);
    }
    return sorted;
}

}  // namespace magma::common
