#include "serve/arrival.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace parcae::serve {
namespace {

constexpr double kPi = 3.14159265358979323846;
// Long-run fraction of burst intervals.
constexpr double kStationaryBurst = kPEnterBurst / (kPEnterBurst + kPExitBurst);

// SplitMix64 finalizer: decorrelates (seed, interval) into a fresh
// stream key, same construction the preemption sampler uses for
// per-point forks.
std::uint64_t mix(std::uint64_t seed, std::uint64_t interval) {
  std::uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL * (interval + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* arrival_kind_name(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kMmpp:
      return "mmpp";
    case ArrivalKind::kReplay:
      return "replay";
  }
  return "?";
}

ArrivalGenerator::ArrivalGenerator(ArrivalOptions options)
    : options_(std::move(options)) {
  if (options_.interval_s <= 0.0) options_.interval_s = 60.0;
  if (options_.base_rps < 0.0) options_.base_rps = 0.0;
  if (options_.burst_multiplier < 1.0) options_.burst_multiplier = 1.0;
}

void ArrivalGenerator::prepare(int intervals) {
  if (options_.kind != ArrivalKind::kMmpp) return;
  if (intervals <= static_cast<int>(burst_.size())) return;
  // One chain, one dedicated stream; extending re-draws nothing.
  Rng chain(mix(options_.seed, 0xbc57ULL));
  std::vector<std::uint8_t> fresh;
  fresh.reserve(static_cast<std::size_t>(intervals));
  std::uint8_t state = 0;
  for (int i = 0; i < intervals; ++i) {
    const double p = state ? kPExitBurst : kPEnterBurst;
    if (chain.uniform() < p) state ^= 1;
    fresh.push_back(state);
  }
  // The chain is replayed from interval 0 every time, so an extension
  // agrees with the existing prefix bit-for-bit.
  burst_ = std::move(fresh);
}

double ArrivalGenerator::envelope(int interval) const {
  if (options_.diurnal_amplitude == 0.0) return 1.0;
  const double t = (interval + 0.5) * options_.interval_s;
  const double phase =
      2.0 * kPi * (t - options_.diurnal_phase_s) / options_.diurnal_period_s;
  const double e = 1.0 + options_.diurnal_amplitude * std::sin(phase);
  return e > 0.0 ? e : 0.0;
}

double ArrivalGenerator::expected_rps(int interval) const {
  if (options_.kind == ArrivalKind::kReplay) {
    if (options_.replay_rps.empty()) return 0.0;
    const int idx = std::min<int>(interval,
                                  static_cast<int>(options_.replay_rps.size()) - 1);
    return std::max(0.0, options_.replay_rps[static_cast<std::size_t>(idx)]);
  }
  double rate = options_.base_rps * envelope(interval);
  if (options_.kind == ArrivalKind::kMmpp) {
    rate *= 1.0 + kStationaryBurst * (options_.burst_multiplier - 1.0);
  }
  return rate;
}

double ArrivalGenerator::realized_rps(int interval) const {
  if (options_.kind == ArrivalKind::kReplay) return expected_rps(interval);
  double rate = options_.base_rps * envelope(interval);
  if (options_.kind == ArrivalKind::kMmpp) {
    const std::size_t i = static_cast<std::size_t>(interval);
    const bool bursting = i < burst_.size() && burst_[i];
    if (bursting) rate *= options_.burst_multiplier;
  }
  return rate;
}

int ArrivalGenerator::count(int interval) const {
  const double lambda = realized_rps(interval) * options_.interval_s;
  if (lambda <= 0.0) return 0;
  Rng rng(mix(options_.seed, static_cast<std::uint64_t>(interval) + 1));
  return static_cast<int>(rng.poisson(lambda));
}

void ArrivalGenerator::arrivals(int interval, std::vector<double>& out) const {
  out.clear();
  const double lambda = realized_rps(interval) * options_.interval_s;
  if (lambda <= 0.0) return;
  Rng rng(mix(options_.seed, static_cast<std::uint64_t>(interval) + 1));
  const int requests = static_cast<int>(rng.poisson(lambda));
  if (requests < 2) {
    if (requests == 1) out.push_back(rng.uniform() * options_.interval_s);
    return;
  }
  // The offsets are uniform on [0, interval_s), so a counting pass into
  // n buckets keyed on floor(v * n / interval_s) leaves about one value
  // per bucket. The key is monotone in v, so a later bucket never holds
  // a smaller value and the insertion pass only reorders values within
  // a bucket: expected O(n), and exactly the vector std::sort returns
  // (equal doubles are indistinguishable). The scratch is per call, so
  // concurrent calls share nothing.
  const auto n = static_cast<std::size_t>(requests);
  std::vector<double> drawn(n);
  for (double& v : drawn) v = rng.uniform() * options_.interval_s;
  const double scale = static_cast<double>(n) / options_.interval_s;
  const auto bucket = [&](double v) {
    return std::min(static_cast<std::size_t>(v * scale), n - 1);
  };
  // cursor[b]: the next free slot of bucket b.
  std::vector<std::uint32_t> cursor(n + 1, 0);
  for (double v : drawn) ++cursor[bucket(v) + 1];
  std::partial_sum(cursor.begin(), cursor.end(), cursor.begin());
  out.resize(n);
  for (double v : drawn) out[cursor[bucket(v)]++] = v;
  for (std::size_t i = 1; i < n; ++i) {
    const double v = out[i];
    std::size_t j = i;
    for (; j > 0 && out[j - 1] > v; --j) out[j] = out[j - 1];
    out[j] = v;
  }
}

std::uint64_t ArrivalGenerator::total_requests(int intervals) const {
  std::uint64_t total = 0;
  for (int i = 0; i < intervals; ++i) {
    total += static_cast<std::uint64_t>(count(i));
  }
  return total;
}

}  // namespace parcae::serve
