#include "report/fixed2.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace ntier::report {

char* put_fixed2(char* out, double v) {
  // !(v >= 0) also takes NaN; -0.0 passes it but printf writes "-0.00".
  if (!(v >= 0.0 && v < 1e12) || std::signbit(v))
    return out + std::snprintf(out, kFixed2Size, "%.2f", v);
  // printf rounds the exact binary value of v to two places, ties to even.
  // The rounded product v * 100.0 (< 1e14) lies within half an ulp (at most
  // 2^-7) of the exact one, so its floor q leaves the exact product in
  // [q - 2^-7, q + 1) and the answer is q or q + 1. The fma takes the sign
  // of v·100 - (q + 0.5) from the exact product: q + 0.5 is exact below
  // 2^52, and a nonzero difference is a multiple of v's ulp (>= 2^-1074),
  // so its one rounding keeps the sign and never yields 0.
  std::uint64_t q = static_cast<std::uint64_t>(v * 100.0);
  const double d = std::fma(v, 100.0, -(static_cast<double>(q) + 0.5));
  if (d > 0.0 || (d == 0.0 && (q & 1) != 0)) ++q;

  char digits[24];
  char* p = digits + sizeof digits;
  *--p = static_cast<char>('0' + q % 10);
  *--p = static_cast<char>('0' + q / 10 % 10);
  *--p = '.';
  std::uint64_t whole = q / 100;
  do {
    *--p = static_cast<char>('0' + whole % 10);
    whole /= 10;
  } while (whole != 0);
  const std::size_t n = static_cast<std::size_t>(digits + sizeof digits - p);
  std::memcpy(out, p, n);
  out[n] = '\0';
  return out + n;
}

}  // namespace ntier::report
