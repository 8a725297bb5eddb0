// printf("%.2f") without printf, for the dashboard's per-window chart
// coordinates.
#pragma once

#include <cstddef>

namespace ntier::report {

// Room put_fixed2 needs: a sign, the 309 integer digits of DBL_MAX, ".00"
// and the terminating NUL.
inline constexpr std::size_t kFixed2Size = 314;

// Writes the text std::printf("%.2f", v) writes in the C locale, then a
// NUL, to `out` (at least kFixed2Size chars) and returns a pointer to the
// NUL. Exact for every double: v·100 is rounded to the nearest integer
// with ties to even, decided on the exact product, and negative values
// (-0.0 included), values >= 1e12, NaN and the infinities go through
// std::snprintf.
char* put_fixed2(char* out, double v);

}  // namespace ntier::report
