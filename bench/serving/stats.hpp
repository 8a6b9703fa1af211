// Sample statistics and run stamping for bench_serving.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace gridmap::bench::serving {

/// One reported number with its unit; `note` (sample support, method) is
/// printed for people only.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note = {};
};

/// Linear-interpolation quantile (the "type 7" definition numpy and
/// Python's statistics.quantiles(method="inclusive") use) of `samples`, q in
/// [0, 1]. Empty input yields NaN.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end());
  const double h = static_cast<double>(samples.size() - 1) * std::clamp(q, 0.0, 1.0);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= samples.size()) return samples.back();
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[lo + 1] - samples[lo]);
}

/// Number of samples strictly above `threshold` — the support of a tail
/// quantile (a p99 needs at least ten samples beyond it to mean anything).
inline std::size_t count_above(const std::vector<double>& samples, double threshold) {
  return static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(), [threshold](double s) { return s > threshold; }));
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Geometric mean of positive ratios (the right average for speedups).
inline double geomean(const std::vector<double>& ratios) {
  if (ratios.empty()) return std::nan("");
  double log_sum = 0.0;
  for (const double r : ratios) log_sum += std::log(r);
  return std::exp(log_sum / static_cast<double>(ratios.size()));
}

/// What every output line set is stamped with, so a number is never read
/// without its hardware and build context.
struct Stamp {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;
  std::uint64_t seed = 0;
};

/// HEAD of the checkout the benchmark was built from, read straight from
/// .git (loose ref or packed-refs); "unknown" outside a git checkout.
inline std::string git_commit(const std::string& root) {
  std::ifstream head_file(root + "/.git/HEAD");
  std::string head;
  if (!std::getline(head_file, head)) return "unknown";
  if (head.rfind("ref: ", 0) != 0) return head.substr(0, 12);
  const std::string ref = head.substr(5);
  std::ifstream loose(root + "/.git/" + ref);
  std::string hash;
  if (std::getline(loose, hash) && !hash.empty()) return hash.substr(0, 12);
  std::ifstream packed(root + "/.git/packed-refs");
  for (std::string line; std::getline(packed, line);) {
    std::istringstream words(line);
    std::string sha, name;
    if (words >> sha >> name && name == ref) return sha.substr(0, 12);
  }
  return "unknown";
}

inline Stamp make_stamp(std::uint64_t seed, const std::string& build_type,
                        const std::string& source_root) {
  Stamp stamp;
  stamp.nproc = std::max(1u, std::thread::hardware_concurrency());
#if defined(__clang__)
  stamp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  stamp.compiler = std::string("gcc ") + __VERSION__;
#else
  stamp.compiler = "unknown";
#endif
  stamp.build_type = build_type;
  stamp.commit = git_commit(source_root);
  stamp.seed = seed;
  return stamp;
}

}  // namespace gridmap::bench::serving
