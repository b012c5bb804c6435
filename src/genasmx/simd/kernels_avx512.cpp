// AVX-512 fill kernel: 8 x 64-bit lanes per vector op. This TU is the
// only one compiled with -mavx512f -mavx512bw (see CMakeLists); it must
// contain no code that runs before dispatch confirms CPU support.
// Without the flags the kernel is null and dispatch settles on AVX2,
// SSE2, or scalar.

#include "genasmx/simd/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)
#include <immintrin.h>

namespace gx::simd::detail {
namespace {

struct Avx512Ops {
  using V = __m512i;
  static constexpr int kLanes = 8;
  static V load(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
  static void store(std::uint64_t* p, V v) { _mm512_storeu_si512(p, v); }
  static V set1(std::uint64_t x) {
    return _mm512_set1_epi64(static_cast<long long>(x));
  }
  static V shl1(V v) { return _mm512_slli_epi64(v, 1); }
  static V shr63(V v) { return _mm512_srli_epi64(v, 63); }
  static V or_(V a, V b) { return _mm512_or_si512(a, b); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  // (a | b) & c in one vpternlogq: truth table (0xF0 | 0xCC) & 0xAA.
  static V orAnd(V a, V b, V c) {
    return _mm512_ternarylogic_epi64(a, b, c, 0xA8);
  }
};

}  // namespace

const FillFn kFillAvx512 = &fillLevel<Avx512Ops>;

}  // namespace gx::simd::detail

#else  // !(__AVX512F__ && __AVX512BW__)

namespace gx::simd::detail {
const FillFn kFillAvx512 = nullptr;
}  // namespace gx::simd::detail

#endif
