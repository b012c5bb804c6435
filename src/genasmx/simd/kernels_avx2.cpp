// AVX2 fill kernel: 4 x 64-bit lanes per vector op. This TU is the only
// one compiled with -mavx2 (see CMakeLists); it must contain no code
// that runs before dispatch confirms CPU support. Without the flag the
// kernel is null and dispatch settles on SSE2 or scalar.

#include "genasmx/simd/kernels.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

namespace gx::simd::detail {
namespace {

struct Avx2Ops {
  using V = __m256i;
  static constexpr int kLanes = 4;
  static V load(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, V v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V set1(std::uint64_t x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  static V shl1(V v) { return _mm256_slli_epi64(v, 1); }
  static V shr63(V v) { return _mm256_srli_epi64(v, 63); }
  static V or_(V a, V b) { return _mm256_or_si256(a, b); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V orAnd(V a, V b, V c) { return and_(or_(a, b), c); }
};

}  // namespace

const FillFn kFillAvx2 = &fillLevel<Avx2Ops>;

}  // namespace gx::simd::detail

#else  // !__AVX2__

namespace gx::simd::detail {
const FillFn kFillAvx2 = nullptr;
}  // namespace gx::simd::detail

#endif
