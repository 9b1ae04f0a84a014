#include "futurerand/common/math.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <math.h>  // lgamma_r: a glibc/BSD extension <cmath> does not declare

#include "futurerand/common/macros.h"

namespace futurerand {

bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

int Log2Floor(uint64_t x) {
  FR_CHECK(x > 0);
  return 63 - __builtin_clzll(x);
}

int Log2Exact(uint64_t x) {
  FR_CHECK_MSG(IsPowerOfTwo(x), "Log2Exact requires a power of two");
  return Log2Floor(x);
}

namespace {

// ln|Gamma(x)| without touching the global `signgam` that std::lgamma
// writes, so concurrent callers (e.g. specs built on several threads) do
// not race. Same value as std::lgamma.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double LogBinomial(int64_t n, int64_t i) {
  FR_CHECK(n >= 0 && i >= 0 && i <= n);
  if (i == 0 || i == n) {
    return 0.0;
  }
  return LogGamma(static_cast<double>(n) + 1.0) -
         LogGamma(static_cast<double>(i) + 1.0) -
         LogGamma(static_cast<double>(n - i) + 1.0);
}

double LogAddExp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) {
    return b;
  }
  if (b == -std::numeric_limits<double>::infinity()) {
    return a;
  }
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

double LogSumExp(std::span<const double> xs) {
  if (xs.empty()) {
    return -std::numeric_limits<double>::infinity();
  }
  const double hi = *std::max_element(xs.begin(), xs.end());
  if (hi == -std::numeric_limits<double>::infinity()) {
    return hi;
  }
  double sum = 0.0;
  for (double x : xs) {
    sum += std::exp(x - hi);
  }
  return hi + std::log(sum);
}

double BinomialLogPmf(int64_t k, int64_t i, double log_p, double log_1mp) {
  return LogBinomial(k, i) + static_cast<double>(i) * log_p +
         static_cast<double>(k - i) * log_1mp;
}

double HoeffdingDeviation(double c, double n, double beta) {
  FR_CHECK(c >= 0.0 && n >= 0.0 && beta > 0.0 && beta < 1.0);
  return c * std::sqrt(2.0 * n * std::log(2.0 / beta));
}

}  // namespace futurerand
