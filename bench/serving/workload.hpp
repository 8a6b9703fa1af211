// Seeded request generation for bench_serving: the paper-shaped instance
// family, Zipf popularity, Poisson arrivals, and the workloads' request
// streams. Everything here is a pure function of the seed (own splitmix64
// generator, no std:: distributions whose output differs between standard
// libraries), which --selftest checks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/dims_create.hpp"

namespace gridmap::bench::serving {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); the modulo bias is below 2^-50 for the n used here.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  template <class T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Independent stream for one purpose of one workload: the same seed gives
/// the same stream, and streams of different purposes never overlap.
inline Rng stream(std::uint64_t seed, std::string_view purpose) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : purpose) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return Rng(seed * 0x9e3779b97f4a7c15ULL ^ h);
}

/// One instance of the paper's Section VI family: a dims_create(N*ppn, d)
/// grid, N nodes of ppn processes, one of the three evaluation stencils, and
/// each dimension periodic with probability 1/4.
struct FamilyInstance {
  Dims dims;
  std::string periodic;  ///< one '0'/'1' per dimension
  std::string kind;      ///< nn | hops | component
  int nodes = 0;
  int ppn = 0;

  /// The GRIDMAP/1 "map" arguments, e.g. "48x32 01 nn 32 48".
  std::string args() const {
    std::string out;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (i > 0) out += 'x';
      out += std::to_string(dims[i]);
    }
    return out + ' ' + periodic + ' ' + kind + ' ' + std::to_string(nodes) + ' ' +
           std::to_string(ppn);
  }
};

/// A cell of the family: fixed ppn, dimensionality and stencil, and a range
/// of node counts. Within a cell the seed picks N and the periodic bits.
struct Stratum {
  int ppn;
  int ndims;
  std::string_view kind;
  int min_nodes;
  int max_nodes;
};

inline constexpr int kFamilyMinNodes = 8;
inline constexpr int kNodeBins = 8;
inline constexpr std::string_view kKinds[] = {"nn", "hops", "component"};

/// Every cell of the family with N in [8, max_nodes] (8 equal bins) and ppn
/// in {16, 24, 32, 48} capped at max_ppn, in a fixed order.
inline std::vector<Stratum> family_strata(int max_nodes, int max_ppn) {
  std::vector<Stratum> out;
  const int span = max_nodes - kFamilyMinNodes + 1;
  for (const int ppn : {16, 24, 32, 48}) {
    if (ppn > max_ppn) continue;
    for (int ndims = 2; ndims <= 3; ++ndims) {
      for (const std::string_view kind : kKinds) {
        for (int bin = 0; bin < kNodeBins; ++bin) {
          out.push_back({ppn, ndims, kind, kFamilyMinNodes + bin * span / kNodeBins,
                         kFamilyMinNodes + (bin + 1) * span / kNodeBins - 1});
        }
      }
    }
  }
  return out;
}

inline FamilyInstance draw_in(Rng& rng, const Stratum& s) {
  FamilyInstance inst;
  inst.nodes = s.min_nodes + static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(s.max_nodes - s.min_nodes + 1)));
  inst.ppn = s.ppn;
  inst.kind = std::string(s.kind);
  for (int d = 0; d < s.ndims; ++d) inst.periodic += rng.uniform() < 0.25 ? '1' : '0';
  inst.dims = dims_create(static_cast<std::int64_t>(inst.nodes) * inst.ppn, s.ndims);
  return inst;
}

/// An endless stream of pairwise-distinct family instances (distinct
/// request arguments, hence distinct canonical signatures). It is
/// stratified so that any run sends nearly the same mix of sizes and shapes
/// whatever the seed — the seed decides which instances, not how hard the
/// workload is, which is what keeps run-to-run spread across seeds small.
/// The stream is a sequence of blocks: a block holds every shape (ppn,
/// dimensionality, stencil) once, in seeded order, with the node bins laid
/// out as a rotating Latin square — each bin equally often per block, and
/// every shape through all 8 bins over 8 blocks.
class FamilyStream {
 public:
  FamilyStream(Rng rng, int max_nodes, int max_ppn)
      : rng_(rng),
        strata_(family_strata(max_nodes, max_ppn)),
        rotation_(kBins),
        offsets_(strata_.size() / kBins) {}

  FamilyInstance next() {
    for (;;) {
      if (position_ == 0) plan_block();
      const Stratum& s = strata_[block_[position_]];
      position_ = (position_ + 1) % block_.size();
      // A cell holds at least 20 distinct instances; a long run can exhaust
      // one, and then the stream simply moves on to the next cell.
      for (int attempt = 0; attempt < 64; ++attempt) {
        FamilyInstance inst = draw_in(rng_, s);
        if (seen_.insert(inst.args()).second) return inst;
      }
    }
  }

  /// A fresh distinct instance from cell `s`; throws when none is left.
  FamilyInstance next_in(const Stratum& s) {
    for (int attempt = 0; attempt < 1024; ++attempt) {
      FamilyInstance inst = draw_in(rng_, s);
      if (seen_.insert(inst.args()).second) return inst;
    }
    throw std::runtime_error("family cell exhausted");
  }

 private:
  static constexpr std::size_t kBins = kNodeBins;

  /// family_strata lists shape-major, so cell = shape * kBins + bin.
  void plan_block() {
    if (blocks_ % kBins == 0) {
      for (std::size_t b = 0; b < rotation_.size(); ++b) rotation_[b] = b;
      for (std::size_t s = 0; s < offsets_.size(); ++s) offsets_[s] = s % kBins;
      rng_.shuffle(rotation_);
      rng_.shuffle(offsets_);
    }
    const std::size_t rotation = rotation_[blocks_ % kBins];
    block_.clear();
    for (std::size_t shape = 0; shape < offsets_.size(); ++shape) {
      block_.push_back(shape * kBins + (rotation + offsets_[shape]) % kBins);
    }
    rng_.shuffle(block_);
    ++blocks_;
  }

  Rng rng_;
  std::vector<Stratum> strata_;
  std::vector<std::size_t> rotation_;  // per block of a round: which rotation of the bins
  std::vector<std::size_t> offsets_;   // per shape: its bin offset this round
  std::vector<std::size_t> block_;     // cells of the current block, in send order
  std::size_t position_ = 0;
  std::size_t blocks_ = 0;
  std::set<std::string> seen_;
};

/// Zipf(s) popularity over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t draw(Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Poisson arrival times (seconds from phase start) at `rate` per second,
/// all strictly before `duration`.
inline std::vector<double> poisson_arrivals(Rng& rng, double rate, double duration) {
  std::vector<double> at;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= duration) return at;
    at.push_back(t);
  }
}

inline constexpr int kFamilyMaxNodes = 100;
inline constexpr int kFamilyMaxPpn = 48;

/// The hot set shared by hot-zipf and mixed: one signature from each of the
/// 64 (ppn, dimensionality, node-bin) cells of the full family, the stencil
/// rotating over the cells. Popularity ranks map to cells through a fixed
/// permutation, so the most requested plans have the same sizes under every
/// seed; the seed picks N and periodicity inside each cell.
inline std::vector<Stratum> hot_strata() {
  const std::vector<Stratum> all = family_strata(kFamilyMaxNodes, kFamilyMaxPpn);
  std::vector<Stratum> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    // family_strata nests ppn, ndims, kind, bin from outer to inner.
    const std::size_t bin = i % kNodeBins;
    const std::size_t kind = i / kNodeBins % 3;
    const std::size_t shape = i / (3 * kNodeBins);
    if (kind == (shape + bin) % 3) out.push_back(all[i]);
  }
  Rng fixed(0x5eed);
  fixed.shuffle(out);
  return out;
}

/// An open-loop request stream: the hot set is sent untimed first; each
/// arrival then names a key (an index into `instances`) and a due time.
struct OpenLoopStream {
  std::vector<FamilyInstance> instances;  ///< [0, warm) hot set by rank, then cold ones
  std::size_t warm = 0;
  std::vector<double> due;                ///< seconds from phase start
  std::vector<std::size_t> key;           ///< per arrival, index into instances
};

/// Zipf(1.0) hits over the hot set, plus a `cold_share` of arrivals that
/// each carry a fresh distinct instance: exactly one in every 1/cold_share
/// arrivals, at a seeded place in its block, so that every seed sends the
/// same number of them.
inline OpenLoopStream open_loop_stream(std::uint64_t seed, std::string_view workload,
                                       double rate, double duration, double cold_share) {
  OpenLoopStream out;
  FamilyStream family(stream(seed, std::string(workload) + "/family"), kFamilyMaxNodes,
                      kFamilyMaxPpn);
  for (const Stratum& s : hot_strata()) out.instances.push_back(family.next_in(s));
  out.warm = out.instances.size();
  Rng arrivals = stream(seed, std::string(workload) + "/arrivals");
  out.due = poisson_arrivals(arrivals, rate, duration);
  Rng pick = stream(seed, std::string(workload) + "/keys");
  const Zipf zipf(out.warm, 1.0);
  const std::size_t block =
      cold_share > 0.0 ? static_cast<std::size_t>(std::lround(1.0 / cold_share)) : 0;
  std::size_t cold_at = 0;
  out.key.reserve(out.due.size());
  for (std::size_t i = 0; i < out.due.size(); ++i) {
    if (block > 0 && i % block == 0) cold_at = i + pick.below(block);
    if (block > 0 && i == cold_at) {
      out.key.push_back(out.instances.size());
      out.instances.push_back(family.next());
    } else {
      out.key.push_back(zipf.draw(pick));
    }
  }
  return out;
}

}  // namespace gridmap::bench::serving
