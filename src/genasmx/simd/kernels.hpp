#pragma once
// Internal contract between SimdBatchSolver and the per-ISA fill
// kernels. One level of the GenASM-DC recurrence is advanced for every
// lane of a group at once; everything else (pattern-mask packing, lane
// bookkeeping, convergence checks, traceback) is ISA-independent scalar
// code in batch_solver.cpp.
//
// Memory layout is structure-of-arrays with the lane index innermost:
// word w of column i of lane l lives at row[(i * nw + w) * L + l], so a
// single vector load picks up the same word of all L lanes.
//
// The recurrence is written once, in fillLevel below. Each ISA TU only
// supplies an op set (vector type, lane count, and a handful of 64-bit
// lane-wise operations) declared in an anonymous namespace, so its
// instantiations have internal linkage: code built with different -m
// flags never merges at link time.

#include <cstddef>
#include <cstdint>

namespace gx::simd::detail {

/// One DP level over columns 1..n_max for all L lanes of a group.
/// Computes, per lane (active-low bitvectors, see genasm_common.hpp):
///   cur[i] = shl1(cur[i-1], s(i-1, d)) | pm[i-1]            (d == 0)
///   cur[i] = (shl1(cur[i-1], s(i-1, d)) | pm[i-1])
///            & shl1(prev[i-1], s(i-1, d-1)) & prev[i-1]
///            & shl1(prev[i], s(i, d-1))                     (d > 0)
/// where s(i, d) = shiftInOne(anchor, i, d) is lane-uniform. cur[0] is
/// initialised by the caller (onesAbove(d), also lane-uniform).
struct FillArgs {
  std::uint64_t* cur;         ///< (n_max + 1) x nw x L words
  const std::uint64_t* prev;  ///< same layout; unread when d == 0
  const std::uint64_t* pm;    ///< n_max x nw x L pattern-mask words
  int n_max;                  ///< columns 1..n_max are computed
  int nw;                     ///< bitvector words per lane
  int d;                      ///< current level
  bool both_ends;             ///< Anchor::BothEnds (s() non-zero)
};

using FillFn = void (*)(const FillArgs&);

/// The recurrence at a fixed word count. Column i-1 of the current level
/// stays in registers (c), and so does the previous level's
/// shl1(prev[i-1]) & prev[i-1] (pp), computed one column ahead; shift
/// carries move word to word in registers. What remains loop-carried is
/// shl1 -> or -> and per word, the and-term built off that chain.
template <class Op, int NW>
void fillLevelNw(const FillArgs& a) {
  using V = typename Op::V;
  constexpr std::size_t L = Op::kLanes;
  constexpr std::size_t cs = NW * L;  // words per column
  const V zero = Op::set1(0);
  const V one = Op::set1(1);
  const auto s = [&](int col, int lvl) {
    return a.both_ends && col > lvl ? one : zero;
  };
  // Multi-word shl1: word w takes word w-1's top bit, word 0 takes `in`.
  const auto shl1 = [](const V* x, V in, int w) {
    return Op::or_(Op::shl1(x[w]), w > 0 ? Op::shr63(x[w - 1]) : in);
  };
  V c[NW];
  for (int w = 0; w < NW; ++w) c[w] = Op::load(a.cur + w * L);
  if (a.d == 0) {
    for (int i = 1; i <= a.n_max; ++i) {
      const std::uint64_t* pm = a.pm + static_cast<std::size_t>(i - 1) * cs;
      std::uint64_t* out = a.cur + static_cast<std::size_t>(i) * cs;
      const V in = s(i - 1, 0);
      for (int w = NW - 1; w >= 0; --w) {  // c[w-1] is still column i-1
        c[w] = Op::or_(shl1(c, in, w), Op::load(pm + w * L));
        Op::store(out + w * L, c[w]);
      }
    }
    return;
  }
  V pp[NW];
  for (int w = 0; w < NW; ++w) pp[w] = Op::load(a.prev + w * L);
  for (int w = NW - 1; w >= 0; --w) {
    pp[w] = Op::and_(shl1(pp, s(0, a.d - 1), w), pp[w]);
  }
  for (int i = 1; i <= a.n_max; ++i) {
    const std::uint64_t* pm = a.pm + static_cast<std::size_t>(i - 1) * cs;
    const std::uint64_t* prev_i = a.prev + static_cast<std::size_t>(i) * cs;
    std::uint64_t* out = a.cur + static_cast<std::size_t>(i) * cs;
    const V in = s(i - 1, a.d);
    const V in_p = s(i, a.d - 1);
    V pi[NW];
    for (int w = 0; w < NW; ++w) pi[w] = Op::load(prev_i + w * L);
    for (int w = NW - 1; w >= 0; --w) {
      const V spi = shl1(pi, in_p, w);
      const V t = Op::and_(pp[w], spi);
      pp[w] = Op::and_(spi, pi[w]);
      const V low = Op::or_(w > 0 ? Op::shr63(c[w - 1]) : in,
                            Op::load(pm + w * L));
      c[w] = Op::orAnd(Op::shl1(c[w]), low, t);
      Op::store(out + w * L, c[w]);
    }
  }
}

/// FillFn over any group word count (1..8, the BitVec<8> ceiling).
template <class Op>
void fillLevel(const FillArgs& a) {
  switch (a.nw) {
    case 1: return fillLevelNw<Op, 1>(a);
    case 2: return fillLevelNw<Op, 2>(a);
    case 3: return fillLevelNw<Op, 3>(a);
    case 4: return fillLevelNw<Op, 4>(a);
    case 5: return fillLevelNw<Op, 5>(a);
    case 6: return fillLevelNw<Op, 6>(a);
    case 7: return fillLevelNw<Op, 7>(a);
    default: return fillLevelNw<Op, 8>(a);
  }
}

/// Scalar single-lane kernel (always available, L = 1).
extern const FillFn kFillScalar;
/// Vector kernels; nullptr where the build lacks the instruction set.
extern const FillFn kFillSse2;
extern const FillFn kFillAvx2;
extern const FillFn kFillAvx512;

}  // namespace gx::simd::detail
