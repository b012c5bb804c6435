// Portable scalar-lane fill kernel: the dispatch target on non-x86 hosts
// or under GENASMX_FORCE_SCALAR, and the per-lane reference the vector
// kernels are checked against. L = 1, so the SoA layout degenerates to
// one contiguous bitvector per column.

#include "genasmx/simd/kernels.hpp"

namespace gx::simd::detail {
namespace {

struct ScalarOps {
  using V = std::uint64_t;
  static constexpr int kLanes = 1;
  static V load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, V v) { *p = v; }
  static V set1(std::uint64_t x) { return x; }
  static V shl1(V v) { return v << 1; }
  static V shr63(V v) { return v >> 63; }
  static V or_(V a, V b) { return a | b; }
  static V and_(V a, V b) { return a & b; }
  static V orAnd(V a, V b, V c) { return (a | b) & c; }
};

}  // namespace

const FillFn kFillScalar = &fillLevel<ScalarOps>;

}  // namespace gx::simd::detail
