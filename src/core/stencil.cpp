#include "core/stencil.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace gridmap {

namespace {

Offset unit(int ndims, int dim, int value) {
  Offset off(static_cast<std::size_t>(ndims), 0);
  off[static_cast<std::size_t>(dim)] = value;
  return off;
}

bool is_zero(const Offset& off) {
  return std::all_of(off.begin(), off.end(), [](int v) { return v == 0; });
}

}  // namespace

Stencil::Stencil(int ndims, std::vector<Offset> offsets)
    : ndims_(ndims), offsets_(std::move(offsets)) {
  GRIDMAP_CHECK(ndims_ >= 1, "stencil must have at least one dimension");
  std::set<Offset> seen;
  for (const Offset& off : offsets_) {
    GRIDMAP_CHECK(static_cast<int>(off.size()) == ndims_,
                  "stencil offset dimensionality mismatch");
    GRIDMAP_CHECK(!is_zero(off), "stencil offset must not be the zero vector");
    GRIDMAP_CHECK(seen.insert(off).second, "duplicate stencil offset");
  }
}

Stencil Stencil::nearest_neighbor(int ndims) {
  std::vector<Offset> offsets;
  offsets.reserve(static_cast<std::size_t>(2 * ndims));
  for (int i = 0; i < ndims; ++i) {
    offsets.push_back(unit(ndims, i, +1));
    offsets.push_back(unit(ndims, i, -1));
  }
  return Stencil(ndims, std::move(offsets));
}

Stencil Stencil::component(int ndims) {
  std::vector<Offset> offsets;
  for (int i = 0; i + 1 < ndims; ++i) {
    offsets.push_back(unit(ndims, i, +1));
    offsets.push_back(unit(ndims, i, -1));
  }
  return Stencil(ndims, std::move(offsets));
}

Stencil Stencil::nearest_neighbor_with_hops(int ndims, std::vector<int> hops) {
  Stencil base = nearest_neighbor(ndims);
  std::vector<Offset> offsets = base.offsets_;
  for (const int a : hops) {
    GRIDMAP_CHECK(a >= 2, "hop distances must be >= 2");
    offsets.push_back(unit(ndims, 0, +a));
    offsets.push_back(unit(ndims, 0, -a));
  }
  return Stencil(ndims, std::move(offsets));
}

Stencil Stencil::from_offsets(std::vector<Offset> offsets) {
  GRIDMAP_CHECK(!offsets.empty(), "from_offsets requires at least one offset");
  const int ndims = static_cast<int>(offsets.front().size());
  return Stencil(ndims, std::move(offsets));
}

Stencil Stencil::from_flat(int ndims, std::span<const int> flat) {
  GRIDMAP_CHECK(ndims >= 1, "ndims must be positive");
  GRIDMAP_CHECK(flat.size() % static_cast<std::size_t>(ndims) == 0,
                "flattened stencil length must be a multiple of ndims");
  std::vector<Offset> offsets;
  const std::size_t k = flat.size() / static_cast<std::size_t>(ndims);
  offsets.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    offsets.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(i) * ndims,
                         flat.begin() + static_cast<std::ptrdiff_t>(i + 1) * ndims);
  }
  return Stencil(ndims, std::move(offsets));
}

std::vector<double> Stencil::cos2_scores() const {
  std::vector<double> scores(static_cast<std::size_t>(ndims_), 0.0);
  for (const Offset& off : offsets_) {
    double norm2 = 0.0;
    for (const int v : off) norm2 += static_cast<double>(v) * v;
    for (int j = 0; j < ndims_; ++j) {
      const double vj = off[static_cast<std::size_t>(j)];
      scores[static_cast<std::size_t>(j)] += (vj * vj) / norm2;
    }
  }
  return scores;
}

std::vector<int> Stencil::crossing_counts() const {
  std::vector<int> counts(static_cast<std::size_t>(ndims_), 0);
  for (const Offset& off : offsets_) {
    for (int j = 0; j < ndims_; ++j) {
      if (off[static_cast<std::size_t>(j)] != 0) ++counts[static_cast<std::size_t>(j)];
    }
  }
  return counts;
}

std::vector<int> Stencil::extents() const {
  std::vector<int> lo(static_cast<std::size_t>(ndims_), 0);
  std::vector<int> hi(static_cast<std::size_t>(ndims_), 0);
  for (const Offset& off : offsets_) {
    for (int j = 0; j < ndims_; ++j) {
      lo[static_cast<std::size_t>(j)] = std::min(lo[static_cast<std::size_t>(j)],
                                                 off[static_cast<std::size_t>(j)]);
      hi[static_cast<std::size_t>(j)] = std::max(hi[static_cast<std::size_t>(j)],
                                                 off[static_cast<std::size_t>(j)]);
    }
  }
  std::vector<int> ext(static_cast<std::size_t>(ndims_), 0);
  for (int j = 0; j < ndims_; ++j) {
    ext[static_cast<std::size_t>(j)] =
        hi[static_cast<std::size_t>(j)] - lo[static_cast<std::size_t>(j)];
  }
  return ext;
}

std::vector<double> Stencil::distortion_factors() const {
  const std::vector<int> ext = extents();
  double volume = 1.0;
  int nonzero = 0;
  for (const int e : ext) {
    if (e != 0) {
      volume *= e;
      ++nonzero;
    }
  }
  std::vector<double> alpha(static_cast<std::size_t>(ndims_), 0.0);
  if (nonzero == 0) return alpha;  // empty / degenerate stencil
  const double side = std::pow(volume, 1.0 / nonzero);
  for (int j = 0; j < ndims_; ++j) {
    const int e = ext[static_cast<std::size_t>(j)];
    alpha[static_cast<std::size_t>(j)] = (e == 0) ? 0.0 : e / side;
  }
  return alpha;
}

std::vector<int> Stencil::flat() const {
  std::vector<int> out;
  out.reserve(offsets_.size() * static_cast<std::size_t>(ndims_));
  for (const Offset& off : offsets_) out.insert(out.end(), off.begin(), off.end());
  return out;
}

std::string Stencil::to_string() const {
  std::string s = "{";
  for (std::size_t i = 0; i < offsets_.size(); ++i) {
    if (i > 0) s += ",";
    s += "(";
    for (int j = 0; j < ndims_; ++j) {
      if (j > 0) s += ",";
      s += std::to_string(offsets_[i][static_cast<std::size_t>(j)]);
    }
    s += ")";
  }
  s += "}";
  return s;
}

std::string Stencil::canonical_signature() const {
  std::vector<Offset> sorted = offsets_;
  std::sort(sorted.begin(), sorted.end());
  std::string s = "s[";
  for (const Offset& off : sorted) {
    s += "(";
    for (std::size_t j = 0; j < off.size(); ++j) {
      if (j > 0) s += ",";
      s += std::to_string(off[j]);
    }
    s += ")";
  }
  s += "]";
  return s;
}

}  // namespace gridmap
