// Seeded open-loop arrival schedules: Poisson arrivals at a fixed offered
// rate. The same (seed, rate, duration) always yields the same send times,
// so every run of a workload offers the server exactly the same load.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Send offsets in nanoseconds from the start of the step, ascending, for
/// Poisson arrivals at `rate_per_s` over `duration_s` seconds.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           double duration_s);

/// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
