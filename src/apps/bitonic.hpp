// The bitonic sort program — the paper's allocation- and recursion-heavy
// workload.
//
// A perfect binary tree stores randomly generated integers in its leaves
// (one heap allocation per node — "extensive memory allocations"); a
// recursive bitonic sorting network permutes the leaf values so an
// in-order traversal yields them sorted. The MSR profile is the opposite
// of linpack's: a very large number of very small memory blocks, so the
// MSRLT search term O(n log n) dominates collection while restoration
// pays no per-block search — per node, two id-table stores (the source-id
// binding and the MSRLT's id index) and one ordered-map insert — the
// divergence Figure 2(b) shows.
#pragma once

#include <cstdint>

#include "mig/annotate.hpp"

namespace hpm::apps {

/// One tree node; leaves carry values, internal nodes carry structure.
/// Mirrors the paper's example `struct node` shape (scalar + links).
struct BitonicNode {
  int value;
  BitonicNode* left;
  BitonicNode* right;
};

struct BitonicResult {
  bool done = false;
  std::uint32_t leaves = 0;
  bool sorted = false;          ///< in-order traversal is non-decreasing
  std::uint64_t sum_before = 0; ///< multiset preservation check
  std::uint64_t sum_after = 0;
  [[nodiscard]] bool ok() const noexcept { return done && sorted && sum_before == sum_after; }
};

void bitonic_register_types(ti::TypeTable& table);

/// Build a tree with 2^log2_leaves leaves of random ints, bitonic-sort it,
/// verify, free. Writes *out on the completing side only.
void bitonic_program(mig::MigContext& ctx, int log2_leaves, std::uint64_t seed,
                     BitonicResult* out);

/// Number of heap blocks (MSR nodes) the program creates: 2^(d+1) - 1.
std::uint64_t bitonic_block_count(int log2_leaves);

}  // namespace hpm::apps
