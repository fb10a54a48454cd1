#include "schedule.h"

#include <cmath>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           double duration_s) {
  std::vector<std::int64_t> out;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return out;
  out.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  std::uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    state = mix_seed(state, 0);
    // Uniform in (0, 1] from the top 53 bits; inverse-CDF exponential gap.
    const double u =
        (static_cast<double>(state >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return out;
}

}  // namespace perfbench
