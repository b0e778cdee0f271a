/**
 * @file
 * AVX2 SimdOps table: 8 output columns per vector, 16 on the blocked
 * main loop. Compiled with -mavx2 (no -mfma: the mul+add pair must
 * round like the scalar reference — the FMA's single rounding would
 * break the bit-exactness contract of dispatch.h). Per-pattern weights
 * arrive pre-hoisted by the caller (rows[] already folds dy/dx into
 * the base pointers) and are broadcast-loaded once per entry.
 *
 * This TU contains AVX2 instructions, so it must only be reached via
 * simdOpsFor(kAvx2), which checks cpuid first.
 */
#include "rt/simd/dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace patdnn {
namespace {

void
accumRowsAvx2(const float* const* rows, const float* w, int live, float* out,
              int64_t n, int unroll)
{
    int64_t i = 0;
    // Two accumulators per step when the tuner asks for a block of at
    // least two vectors: hides the add latency without reassociating
    // any per-lane chain.
    if (unroll >= 16) {
        for (; i + 16 <= n; i += 16) {
            __m256 a0 = _mm256_loadu_ps(out + i);
            __m256 a1 = _mm256_loadu_ps(out + i + 8);
            for (int e = 0; e < live; ++e) {
                const __m256 wv = _mm256_set1_ps(w[e]);
                a0 = _mm256_add_ps(
                    a0, _mm256_mul_ps(wv, _mm256_loadu_ps(rows[e] + i)));
                a1 = _mm256_add_ps(
                    a1, _mm256_mul_ps(wv, _mm256_loadu_ps(rows[e] + i + 8)));
            }
            _mm256_storeu_ps(out + i, a0);
            _mm256_storeu_ps(out + i + 8, a1);
        }
    }
    for (; i + 8 <= n; i += 8) {
        __m256 acc = _mm256_loadu_ps(out + i);
        for (int e = 0; e < live; ++e)
            acc = _mm256_add_ps(
                acc, _mm256_mul_ps(_mm256_set1_ps(w[e]),
                                   _mm256_loadu_ps(rows[e] + i)));
        _mm256_storeu_ps(out + i, acc);
    }
    for (; i < n; ++i) {
        float acc = out[i];
        for (int e = 0; e < live; ++e)
            acc += w[e] * rows[e][i];
        out[i] = acc;
    }
}

void
accumRowsMultiAvx2(const float* const* rows, int live, const int* wsel,
                   const float* const* w, float* const* outs, int count,
                   int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Shared input loads (live <= 9 vectors + 1 accumulator + 1
        // broadcast fits the 16 ymm registers).
        __m256 iv[9];
        for (int e = 0; e < live; ++e)
            iv[e] = _mm256_loadu_ps(rows[e] + i);
        for (int f = 0; f < count; ++f) {
            const float* wf = w[f];
            __m256 acc = _mm256_loadu_ps(outs[f] + i);
            for (int e = 0; e < live; ++e)
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_set1_ps(wf[wsel[e]]), iv[e]));
            _mm256_storeu_ps(outs[f] + i, acc);
        }
    }
    for (; i < n; ++i) {
        float iv[9];
        for (int e = 0; e < live; ++e)
            iv[e] = rows[e][i];
        for (int f = 0; f < count; ++f) {
            const float* wf = w[f];
            float acc = outs[f][i];
            for (int e = 0; e < live; ++e)
                acc += wf[wsel[e]] * iv[e];
            outs[f][i] = acc;
        }
    }
}

void
axpyAvx2(float a, const float* x, float* y, int64_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
        _mm256_storeu_ps(
            y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                                 _mm256_mul_ps(av, _mm256_loadu_ps(x + i))));
        _mm256_storeu_ps(
            y + i + 8,
            _mm256_add_ps(_mm256_loadu_ps(y + i + 8),
                          _mm256_mul_ps(av, _mm256_loadu_ps(x + i + 8))));
    }
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                                 _mm256_mul_ps(av, _mm256_loadu_ps(x + i))));
    for (; i < n; ++i)
        y[i] += a * x[i];
}

void
reluAvx2(float* y, int64_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    int64_t i = 0;
    // maxps returns the second operand on equal/NaN lanes; (v, zero)
    // ordering matches std::max(0.0f, v) for ±0.0 and NaN inputs.
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(y + i), zero));
    for (; i < n; ++i)
        y[i] = 0.0f < y[i] ? y[i] : 0.0f;
}

// Packed-GEMM tile: 4 LHS rows x 16 RHS columns = 8 ymm accumulators,
// plus one broadcast and two RHS loads per k step — 11 of the 16 ymm
// registers, leaving headroom for addressing.
constexpr int kGemmMrAvx2 = 4;
constexpr int kGemmNrAvx2 = 16;

void
gemmTileAvx2(const float* a_panel, const float* b_panel, float* c, int64_t ldc,
             int64_t kc, int mr, int nr)
{
    if (mr == kGemmMrAvx2 && nr == kGemmNrAvx2) {
        __m256 acc[kGemmMrAvx2][2];
        for (int m = 0; m < kGemmMrAvx2; ++m) {
            acc[m][0] = _mm256_loadu_ps(c + m * ldc);
            acc[m][1] = _mm256_loadu_ps(c + m * ldc + 8);
        }
        for (int64_t k = 0; k < kc; ++k) {
            const __m256 b0 = _mm256_loadu_ps(b_panel + k * kGemmNrAvx2);
            const __m256 b1 = _mm256_loadu_ps(b_panel + k * kGemmNrAvx2 + 8);
            const float* a = a_panel + k * kGemmMrAvx2;
            for (int m = 0; m < kGemmMrAvx2; ++m) {
                const __m256 av = _mm256_set1_ps(a[m]);
                acc[m][0] =
                    _mm256_add_ps(acc[m][0], _mm256_mul_ps(av, b0));
                acc[m][1] =
                    _mm256_add_ps(acc[m][1], _mm256_mul_ps(av, b1));
            }
        }
        for (int m = 0; m < kGemmMrAvx2; ++m) {
            _mm256_storeu_ps(c + m * ldc, acc[m][0]);
            _mm256_storeu_ps(c + m * ldc + 8, acc[m][1]);
        }
        return;
    }
    // Edge tiles: same per-element k chain, scalar lanes.
    float acc[kGemmMrAvx2][kGemmNrAvx2];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    for (int64_t k = 0; k < kc; ++k) {
        const float* a = a_panel + k * kGemmMrAvx2;
        const float* b = b_panel + k * kGemmNrAvx2;
        for (int m = 0; m < mr; ++m) {
            float av = a[m];
            for (int n = 0; n < nr; ++n)
                acc[m][n] += av * b[n];
        }
    }
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            c[m * ldc + n] = acc[m][n];
}

// Int8 tile: 4 LHS rows x 16 RHS columns. One k-PAIR per step: the
// 32-byte RHS pair row sign-extends into two ymm of interleaved
// (k0, k1) i16 column pairs, the LHS (a0, a1) i16 pair broadcasts as
// one 32-bit lane straight from the pre-widened panel (vpbroadcastd
// from memory — no per-visit sign-extension), and _mm256_madd_epi16
// does the pairwise i16 multiply + i32 add — two multiply-adds per k.
// Products fit i16 (127*127 = 16129 < 32767) and the pair sum fits
// i32, so this is exact (dispatch.h).
constexpr int kGemmI8MrAvx2 = 4;
constexpr int kGemmI8NrAvx2 = 16;

void
gemmTileI8Avx2(const int16_t* a_panel, const int8_t* b_panel, int32_t* c,
               int64_t ldc, int64_t kc, int mr, int nr)
{
    const int64_t kp = (kc + 1) / 2;  // Panels are k-pair interleaved.
    if (mr == kGemmI8MrAvx2 && nr == kGemmI8NrAvx2) {
        __m256i acc[kGemmI8MrAvx2][2];
        for (int m = 0; m < kGemmI8MrAvx2; ++m) {
            acc[m][0] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c + m * ldc));
            acc[m][1] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c + m * ldc + 8));
        }
        for (int64_t k = 0; k < kp; ++k) {
            const __m256i braw = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(b_panel +
                                                 k * kGemmI8NrAvx2 * 2));
            // Columns 0-7 / 8-15 as interleaved (k0, k1) i16 pairs.
            const __m256i b_lo =
                _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw));
            const __m256i b_hi =
                _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1));
            const int16_t* a = a_panel + k * kGemmI8MrAvx2 * 2;
            for (int m = 0; m < kGemmI8MrAvx2; ++m) {
                int32_t pair;
                std::memcpy(&pair, a + m * 2, sizeof(pair));
                const __m256i av = _mm256_set1_epi32(pair);
                acc[m][0] = _mm256_add_epi32(acc[m][0],
                                             _mm256_madd_epi16(b_lo, av));
                acc[m][1] = _mm256_add_epi32(acc[m][1],
                                             _mm256_madd_epi16(b_hi, av));
            }
        }
        for (int m = 0; m < kGemmI8MrAvx2; ++m) {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + m * ldc),
                                acc[m][0]);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + m * ldc + 8),
                                acc[m][1]);
        }
        return;
    }
    // Edge tiles: scalar lanes over the same pair layout.
    int32_t acc[kGemmI8MrAvx2][kGemmI8NrAvx2];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    for (int64_t k = 0; k < kp; ++k) {
        const int16_t* a = a_panel + k * kGemmI8MrAvx2 * 2;
        const int8_t* b = b_panel + k * kGemmI8NrAvx2 * 2;
        for (int m = 0; m < mr; ++m) {
            int32_t a0 = a[m * 2];
            int32_t a1 = a[m * 2 + 1];
            for (int n = 0; n < nr; ++n)
                acc[m][n] += a0 * b[n * 2] + a1 * b[n * 2 + 1];
        }
    }
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            c[m * ldc + n] = acc[m][n];
}

// f32 -> i8 row quantization, 32 elements per step. Each ymm lane runs
// the scalar contract verbatim (mul, clamp, sign-matched +0.5,
// truncate via cvttps2dq), then two saturating narrows squeeze the
// four i32 vectors to i8 — values are already inside [-127, 127], so
// the saturation never engages; it is only the narrowing shape — and
// one cross-lane permute undoes the 128-bit interleave of vpackss.
void
quantizeRowI8Avx2(const float* x, int64_t n, float inv_scale, int8_t* out)
{
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256 vhi = _mm256_set1_ps(127.0f);
    const __m256 vlo = _mm256_set1_ps(-127.0f);
    const __m256 vhalf = _mm256_set1_ps(0.5f);
    const __m256 vsign = _mm256_set1_ps(-0.0f);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    auto lane = [&](const float* p) {
        __m256 s = _mm256_mul_ps(_mm256_loadu_ps(p), vinv);
        s = _mm256_min_ps(s, vhi);
        s = _mm256_max_ps(s, vlo);
        const __m256 half = _mm256_or_ps(_mm256_and_ps(s, vsign), vhalf);
        return _mm256_cvttps_epi32(_mm256_add_ps(s, half));
    };
    int64_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i q01 = _mm256_packs_epi32(lane(x + i), lane(x + i + 8));
        const __m256i q23 =
            _mm256_packs_epi32(lane(x + i + 16), lane(x + i + 24));
        const __m256i q = _mm256_permutevar8x32_epi32(
            _mm256_packs_epi16(q01, q23), order);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), q);
    }
    for (; i < n; ++i) {
        float s = x[i] * inv_scale;
        s = s > 127.0f ? 127.0f : s;
        s = s < -127.0f ? -127.0f : s;
        s += s >= 0.0f ? 0.5f : -0.5f;
        out[i] = static_cast<int8_t>(static_cast<int32_t>(s));
    }
}

// Pattern tile: up to four ymm accumulators (32 lanes) stay live across
// the filter's whole kernel walk, plus one weight broadcast; the taps
// fold into the multiplies as memory operands.
constexpr int kPatternLanesAvx2 = 32;

// Store `live` lanes of v starting at grid lane q: one vector store
// when they are all valid pixels of one output row, else lane by lane,
// dropping the lanes that fall in the pad columns (x >= ow).
inline void
storeLanesAvx2(const PatternTile& t, __m256 v, int64_t q, int64_t live)
{
    int64_t x = q % t.wp;
    float* row = t.out + q / t.wp * t.ow;
    if (live == 8 && x + 8 <= t.ow) {
        _mm256_storeu_ps(row + x, v);
        return;
    }
    float lane[8];
    _mm256_storeu_ps(lane, v);
    for (int64_t i = 0; i < live; ++i) {
        if (x < t.ow)
            row[x] = lane[i];
        if (++x == t.wp) {
            x = 0;
            row += t.ow;
        }
    }
}

// NE > 0 fixes the entry count at compile time (the common 4-entry
// patterns unroll fully, taps held in registers); NE == 0 reads it.
template <int NV, int NE>
void
patternTileAvx2Impl(const PatternTile& t)
{
    __m256 acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = _mm256_set1_ps(t.bias);
    const int ne = NE > 0 ? NE : t.entries;
    for (int p = 0; p < t.patterns; ++p) {
        const int32_t* taps = t.taps + p * ne;
        for (int32_t k = t.stride[p]; k < t.stride[p + 1]; ++k) {
            const float* src = t.in + t.chan[k] + t.q0;
            const float* wk = t.w + static_cast<int64_t>(k) * ne;
            for (int e = 0; e < ne; ++e) {
                const float* s = src + taps[e];
                const __m256 wv = _mm256_set1_ps(wk[e]);
                for (int v = 0; v < NV; ++v)
                    acc[v] = _mm256_add_ps(
                        acc[v], _mm256_mul_ps(wv, _mm256_loadu_ps(s + 8 * v)));
            }
        }
    }
    if (t.relu) {
        // (acc, zero) operand order: NaN and -0.0 lanes become +0.0,
        // exactly like std::max(0.0f, acc).
        const __m256 zero = _mm256_setzero_ps();
        for (int v = 0; v < NV; ++v)
            acc[v] = _mm256_max_ps(acc[v], zero);
    }
    for (int v = 0; v < NV; ++v)
        storeLanesAvx2(t, acc[v], t.q0 + 8 * v,
                       std::min<int64_t>(8, t.lanes - 8 * v));
}

template <int NE>
void
patternTileAvx2Entries(const PatternTile& t)
{
    // Only as many vectors as the tile has lanes: a 2x2 plane's six
    // lanes cost one vector, not a full 32-lane tile.
    switch ((t.lanes + 7) / 8) {
      case 1: patternTileAvx2Impl<1, NE>(t); break;
      case 2: patternTileAvx2Impl<2, NE>(t); break;
      case 3: patternTileAvx2Impl<3, NE>(t); break;
      default: patternTileAvx2Impl<4, NE>(t); break;
    }
}

void
patternTileAvx2(const PatternTile& t)
{
    if (t.entries == 4)
        patternTileAvx2Entries<4>(t);
    else
        patternTileAvx2Entries<0>(t);
}

}  // namespace

const SimdOps&
avx2SimdOps()
{
    static const SimdOps ops = {SimdIsa::kAvx2, "avx2", 8,
                                accumRowsAvx2, accumRowsMultiAvx2,
                                axpyAvx2, reluAvx2,
                                kGemmMrAvx2, kGemmNrAvx2, gemmTileAvx2,
                                kGemmI8MrAvx2, kGemmI8NrAvx2, gemmTileI8Avx2,
                                quantizeRowI8Avx2,
                                kPatternLanesAvx2, patternTileAvx2};
    return ops;
}

}  // namespace patdnn

#endif  // defined(__AVX2__)
