// Stencil: a k-neighborhood of relative offsets describing with whom each
// process in a Cartesian grid communicates (paper Section II).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace gridmap {

/// A k-neighborhood S = {R_0, ..., R_{k-1}} of relative coordinate offsets.
///
/// Offsets are d-dimensional integer vectors; each offset induces one
/// *directed* communication edge per grid cell (towards `cell + offset`).
/// The three stencils of the paper (Fig. 2) are provided as factories.
class Stencil {
 public:
  /// Nearest-neighbor stencil: S = { +-1_i | 0 <= i < d }.
  static Stencil nearest_neighbor(int ndims);

  /// Component stencil: S = { +-1_i | 0 <= i < d-1 } — no communication
  /// along the last dimension. For d == 1 the stencil is empty.
  static Stencil component(int ndims);

  /// Nearest-neighbor with hops: nearest_neighbor(d) plus { +-a*1_0 } for
  /// each hop distance a (paper uses a in {2,3} along the first dimension).
  static Stencil nearest_neighbor_with_hops(int ndims,
                                            std::vector<int> hops = {2, 3});

  /// Builds a stencil from explicit offset vectors (all of equal dimension,
  /// none the zero vector, duplicates rejected).
  static Stencil from_offsets(std::vector<Offset> offsets);

  /// Parses the flattened interface of the paper's Listing 1: `flat` holds
  /// k * ndims entries, offset i occupying entries [i*ndims, (i+1)*ndims).
  static Stencil from_flat(int ndims, std::span<const int> flat);

  int ndims() const noexcept { return ndims_; }
  int k() const noexcept { return static_cast<int>(offsets_.size()); }
  bool empty() const noexcept { return offsets_.empty(); }
  const std::vector<Offset>& offsets() const noexcept { return offsets_; }

  /// Eq. (2): per-dimension sum over offsets of cos^2 of the angle between
  /// the offset and the dimension's unit vector. Smaller means the dimension
  /// is more orthogonal to the stencil, i.e. a better cut candidate.
  std::vector<double> cos2_scores() const;

  /// f_j of the k-d tree algorithm: number of offsets with a non-zero
  /// component along dimension j (communication crossing dimension j).
  std::vector<int> crossing_counts() const;

  /// Extensions e_i = max_i R_i - min_i R_i of the stencil bounding box
  /// (Stencil Strips algorithm).
  std::vector<int> extents() const;

  /// Distortion factors alpha_i = e_i / V_b^(1/d_b), where V_b is the volume
  /// of the bounding box over non-zero extents and d_b their count. A
  /// dimension with zero extent gets alpha_i = 0 (no communication across it).
  std::vector<double> distortion_factors() const;

  /// Flattened representation (Listing 1 layout), k * ndims entries.
  std::vector<int> flat() const;

  /// Human-readable form, e.g. "{(1,0),(-1,0),(0,1),(0,-1)}".
  std::string to_string() const;

  /// Canonical textual form with offsets sorted lexicographically, so two
  /// stencils with the same offset set in different order produce the same
  /// signature, e.g. "s[(-1,0)(0,-1)(0,1)(1,0)]". Engine plan-cache keys.
  std::string canonical_signature() const;

  friend bool operator==(const Stencil&, const Stencil&) = default;

 private:
  Stencil(int ndims, std::vector<Offset> offsets);

  int ndims_ = 0;
  std::vector<Offset> offsets_;
};

}  // namespace gridmap
