// Width-adaptive index storage for the CSR substrates (DESIGN.md §9).
//
// Every CSR-shaped structure in the library (graph adjacency offsets, the
// flow ledger's row pointers, the linalg sparse matrices) stores indices
// whose maximum value is known exactly at build time: 2m incident slots,
// n column ids, nnz row offsets.  Below 2^32 those fit in uint32 — half
// the bytes and twice the cache density of the size_t arrays the seed
// used, which is where the large-n single-core wins come from.  IndexArray
// picks the width once at build time from that known maximum and keeps a
// guarded wide (uint64) fallback for graphs past the 2^32 incident-slot
// boundary, so nothing silently truncates.
//
// The width decision never affects *values*: readers observe the same
// uint64 sequence either way, so every determinism/bit-identity contract
// is independent of the chosen width (tests force the wide path via
// set_force_wide_indices to prove it).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lb::util {

namespace detail {
inline std::atomic<bool> g_force_wide_indices{false};
}  // namespace detail

/// Test hook: force every subsequently built IndexArray onto the wide
/// (uint64) fallback regardless of its value range.  Values are identical
/// either way; this exists so the fallback path stays exercised without
/// allocating a 2^32-slot structure.
inline bool force_wide_indices() {
  return detail::g_force_wide_indices.load(std::memory_order_relaxed);
}
inline void set_force_wide_indices(bool on) {
  detail::g_force_wide_indices.store(on, std::memory_order_relaxed);
}

class IndexArray {
 public:
  /// Largest value narrow (uint32) storage can hold.  A graph whose
  /// incident-slot count 2m exceeds this gets the wide fallback.
  static constexpr std::uint64_t kNarrowMax = 0xFFFF'FFFFull;

  static bool fits_narrow(std::uint64_t max_value) { return max_value <= kNarrowMax; }

  IndexArray() = default;

  /// Size to `count` zero-filled slots, choosing storage wide enough for
  /// values up to `max_value` inclusive (always wide when `force_wide`).
  void reset(std::size_t count, std::uint64_t max_value,
             bool force_wide = force_wide_indices()) {
    narrow_ = fits_narrow(max_value) && !force_wide;
    if (narrow_) {
      wide_.clear();
      wide_.shrink_to_fit();
      slim_.assign(count, 0);
    } else {
      slim_.clear();
      slim_.shrink_to_fit();
      wide_.assign(count, 0);
    }
  }

  /// Copy an externally built (size_t) array, narrowing when it fits.
  void assign_copy(const std::vector<std::size_t>& src, std::uint64_t max_value,
                   bool force_wide = force_wide_indices()) {
    reset(src.size(), max_value, force_wide);
    for (std::size_t i = 0; i < src.size(); ++i) set(i, src[i]);
  }

  bool narrow() const { return narrow_; }
  std::size_t size() const { return narrow_ ? slim_.size() : wide_.size(); }
  bool empty() const { return size() == 0; }

  std::uint64_t operator[](std::size_t i) const {
    return narrow_ ? slim_[i] : wide_[i];
  }
  std::uint64_t front() const { return (*this)[0]; }
  std::uint64_t back() const { return (*this)[size() - 1]; }

  void set(std::size_t i, std::uint64_t v) {
    if (narrow_) {
      slim_[i] = static_cast<std::uint32_t>(v);
    } else {
      wide_[i] = v;
    }
  }

  /// Bytes of index payload actually resident (the bytes/node metric).
  std::size_t size_bytes() const {
    return narrow_ ? slim_.size() * sizeof(std::uint32_t)
                   : wide_.size() * sizeof(std::uint64_t);
  }

  /// One-branch dispatch to a typed raw pointer, for hot loops that must
  /// not pay the per-element width branch (CSR multiply kernels).
  template <class Fn>
  decltype(auto) visit(Fn&& fn) const {
    return narrow_ ? fn(slim_.data()) : fn(wide_.data());
  }

  /// Widened copy, for consumers with a fixed-width interface (the
  /// lb::check mutation-test surface).  Allocates; checking-path only.
  std::vector<std::uint64_t> to_u64() const {
    std::vector<std::uint64_t> out(size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = (*this)[i];
    return out;
  }

 private:
  bool narrow_ = true;
  std::vector<std::uint32_t> slim_;
  std::vector<std::uint64_t> wide_;
};

}  // namespace lb::util
