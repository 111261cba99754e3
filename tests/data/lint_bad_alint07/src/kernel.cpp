// Fixture: raw SIMD intrinsics in src/.
#include <immintrin.h>

namespace demo {

void
addFour(const double *a, const double *b, double *out)
{
    const __m256d va = _mm256_loadu_pd(a);
    const __m256d vb = _mm256_loadu_pd(b);
    _mm256_storeu_pd(out, _mm256_add_pd(va, vb));
}

} // namespace demo
