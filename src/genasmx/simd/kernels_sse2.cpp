// SSE2 fill kernel: 2 x 64-bit lanes per vector op. SSE2 is part of the
// x86-64 baseline, so this TU needs no special flags there; elsewhere it
// compiles to a null kernel and dispatch falls back to scalar lanes.

#include "genasmx/simd/kernels.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>

namespace gx::simd::detail {
namespace {

struct Sse2Ops {
  using V = __m128i;
  static constexpr int kLanes = 2;
  static V load(const std::uint64_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(std::uint64_t* p, V v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static V set1(std::uint64_t x) {
    return _mm_set1_epi64x(static_cast<long long>(x));
  }
  static V shl1(V v) { return _mm_slli_epi64(v, 1); }
  static V shr63(V v) { return _mm_srli_epi64(v, 63); }
  static V or_(V a, V b) { return _mm_or_si128(a, b); }
  static V and_(V a, V b) { return _mm_and_si128(a, b); }
  static V orAnd(V a, V b, V c) { return and_(or_(a, b), c); }
};

}  // namespace

const FillFn kFillSse2 = &fillLevel<Sse2Ops>;

}  // namespace gx::simd::detail

#else  // !__SSE2__

namespace gx::simd::detail {
const FillFn kFillSse2 = nullptr;
}  // namespace gx::simd::detail

#endif
