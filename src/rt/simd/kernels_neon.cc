/**
 * @file
 * NEON SimdOps table (aarch64): 4 output columns per vector, 8 on the
 * blocked main loop — the layout PatDNN's generated mobile kernels
 * target. Explicit vmulq+vaddq (never vmlaq/vfmaq: aarch64 fuses those
 * into a single-rounding FMLA, which would break the bit-exactness
 * contract of dispatch.h). NEON is baseline on aarch64, so this TU
 * needs no extra compile flags and no cpuid gate.
 */
#include "rt/simd/dispatch.h"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cstring>

namespace patdnn {
namespace {

void
accumRowsNeon(const float* const* rows, const float* w, int live, float* out,
              int64_t n, int unroll)
{
    int64_t i = 0;
    if (unroll >= 8) {
        for (; i + 8 <= n; i += 8) {
            float32x4_t a0 = vld1q_f32(out + i);
            float32x4_t a1 = vld1q_f32(out + i + 4);
            for (int e = 0; e < live; ++e) {
                const float32x4_t wv = vdupq_n_f32(w[e]);
                a0 = vaddq_f32(a0, vmulq_f32(wv, vld1q_f32(rows[e] + i)));
                a1 = vaddq_f32(a1, vmulq_f32(wv, vld1q_f32(rows[e] + i + 4)));
            }
            vst1q_f32(out + i, a0);
            vst1q_f32(out + i + 4, a1);
        }
    }
    for (; i + 4 <= n; i += 4) {
        float32x4_t acc = vld1q_f32(out + i);
        for (int e = 0; e < live; ++e)
            acc = vaddq_f32(
                acc, vmulq_f32(vdupq_n_f32(w[e]), vld1q_f32(rows[e] + i)));
        vst1q_f32(out + i, acc);
    }
    for (; i < n; ++i) {
        float acc = out[i];
        for (int e = 0; e < live; ++e)
            acc += w[e] * rows[e][i];
        out[i] = acc;
    }
}

void
accumRowsMultiNeon(const float* const* rows, int live, const int* wsel,
                   const float* const* w, float* const* outs, int count,
                   int64_t n)
{
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        float32x4_t iv[9];
        for (int e = 0; e < live; ++e)
            iv[e] = vld1q_f32(rows[e] + i);
        for (int f = 0; f < count; ++f) {
            const float* wf = w[f];
            float32x4_t acc = vld1q_f32(outs[f] + i);
            for (int e = 0; e < live; ++e)
                acc = vaddq_f32(acc,
                                vmulq_f32(vdupq_n_f32(wf[wsel[e]]), iv[e]));
            vst1q_f32(outs[f] + i, acc);
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
axpyNeon(float a, const float* x, float* y, int64_t n)
{
    const float32x4_t av = vdupq_n_f32(a);
    int64_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i),
                                   vmulq_f32(av, vld1q_f32(x + i))));
    for (; i < n; ++i)
        y[i] += a * x[i];
}

void
reluNeon(float* y, int64_t n)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    int64_t i = 0;
    // vmaxq returns the non-NaN operand lane-wise on aarch64 only for
    // fmax semantics; select explicitly so NaN lanes become 0 exactly
    // like std::max(0.0f, v).
    for (; i + 4 <= n; i += 4) {
        const float32x4_t v = vld1q_f32(y + i);
        const uint32x4_t keep = vcgtq_f32(v, zero);  // v > 0, false on NaN
        vst1q_f32(y + i, vbslq_f32(keep, v, zero));
    }
    for (; i < n; ++i)
        y[i] = 0.0f < y[i] ? y[i] : 0.0f;
}

// Packed-GEMM tile: 4 LHS rows x 8 RHS columns = 8 q-register
// accumulators plus one broadcast and two RHS loads per k step; well
// inside the 32 NEON registers. Explicit vmulq+vaddq, never
// vmlaq/vfmaq (see the file comment).
constexpr int kGemmMrNeon = 4;
constexpr int kGemmNrNeon = 8;

void
gemmTileNeon(const float* a_panel, const float* b_panel, float* c, int64_t ldc,
             int64_t kc, int mr, int nr)
{
    if (mr == kGemmMrNeon && nr == kGemmNrNeon) {
        float32x4_t acc[kGemmMrNeon][2];
        for (int m = 0; m < kGemmMrNeon; ++m) {
            acc[m][0] = vld1q_f32(c + m * ldc);
            acc[m][1] = vld1q_f32(c + m * ldc + 4);
        }
        for (int64_t k = 0; k < kc; ++k) {
            const float32x4_t b0 = vld1q_f32(b_panel + k * kGemmNrNeon);
            const float32x4_t b1 = vld1q_f32(b_panel + k * kGemmNrNeon + 4);
            const float* a = a_panel + k * kGemmMrNeon;
            for (int m = 0; m < kGemmMrNeon; ++m) {
                const float32x4_t av = vdupq_n_f32(a[m]);
                acc[m][0] = vaddq_f32(acc[m][0], vmulq_f32(av, b0));
                acc[m][1] = vaddq_f32(acc[m][1], vmulq_f32(av, b1));
            }
        }
        for (int m = 0; m < kGemmMrNeon; ++m) {
            vst1q_f32(c + m * ldc, acc[m][0]);
            vst1q_f32(c + m * ldc + 4, acc[m][1]);
        }
        return;
    }
    // Edge tiles: same per-element k chain, scalar lanes.
    float acc[kGemmMrNeon][kGemmNrNeon];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    for (int64_t k = 0; k < kc; ++k) {
        const float* a = a_panel + k * kGemmMrNeon;
        const float* b = b_panel + k * kGemmNrNeon;
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

// Int8 tile: 4 LHS rows x 8 RHS columns, one k-PAIR per step (the
// sdot-style shape without requiring the dotprod extension, which is
// not baseline armv8-a): the 16-byte RHS pair row widens to two i16x8
// vectors of interleaved (k0, k1) column pairs, the LHS pair broadcasts
// as one 32-bit lane, vmulq_s16 is exact (127*127 < 32767) and
// vpadalq_s16 does the pairwise i16 -> i32 add-accumulate. The LHS
// panel arrives pre-widened to i16, so the (a0, a1) pair is one
// naturally aligned 32-bit memory unit dup-loaded directly. Integer
// accumulation is exact, so no ordering contract applies (dispatch.h).
constexpr int kGemmI8MrNeon = 4;
constexpr int kGemmI8NrNeon = 8;

void
gemmTileI8Neon(const int16_t* a_panel, const int8_t* b_panel, int32_t* c,
               int64_t ldc, int64_t kc, int mr, int nr)
{
    const int64_t kp = (kc + 1) / 2;  // Panels are k-pair interleaved.
    if (mr == kGemmI8MrNeon && nr == kGemmI8NrNeon) {
        int32x4_t acc[kGemmI8MrNeon][2];
        for (int m = 0; m < kGemmI8MrNeon; ++m) {
            acc[m][0] = vld1q_s32(c + m * ldc);
            acc[m][1] = vld1q_s32(c + m * ldc + 4);
        }
        for (int64_t k = 0; k < kp; ++k) {
            const int8x16_t braw = vld1q_s8(b_panel + k * kGemmI8NrNeon * 2);
            // Columns 0-3 / 4-7 as interleaved (k0, k1) i16 pairs.
            const int16x8_t b_lo = vmovl_s8(vget_low_s8(braw));
            const int16x8_t b_hi = vmovl_s8(vget_high_s8(braw));
            const int16_t* a = a_panel + k * kGemmI8MrNeon * 2;
            for (int m = 0; m < kGemmI8MrNeon; ++m) {
                int32_t pair;
                std::memcpy(&pair, a + m * 2, sizeof(pair));
                const int16x8_t av =
                    vreinterpretq_s16_s32(vdupq_n_s32(pair));
                acc[m][0] = vpadalq_s16(acc[m][0], vmulq_s16(av, b_lo));
                acc[m][1] = vpadalq_s16(acc[m][1], vmulq_s16(av, b_hi));
            }
        }
        for (int m = 0; m < kGemmI8MrNeon; ++m) {
            vst1q_s32(c + m * ldc, acc[m][0]);
            vst1q_s32(c + m * ldc + 4, acc[m][1]);
        }
        return;
    }
    // Edge tiles: scalar lanes over the same pair layout.
    int32_t acc[kGemmI8MrNeon][kGemmI8NrNeon];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    for (int64_t k = 0; k < kp; ++k) {
        const int16_t* a = a_panel + k * kGemmI8MrNeon * 2;
        const int8_t* b = b_panel + k * kGemmI8NrNeon * 2;
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

// f32 -> i8 row quantization, 16 elements per step: each q-register
// lane runs the scalar contract verbatim (mul, clamp, sign-matched
// +0.5, truncate via vcvtq_s32_f32), then saturating narrows squeeze
// the four i32 vectors to i8 — values are already inside [-127, 127],
// so the saturation never engages; it is only the narrowing shape.
void
quantizeRowI8Neon(const float* x, int64_t n, float inv_scale, int8_t* out)
{
    const float32x4_t vinv = vdupq_n_f32(inv_scale);
    const float32x4_t vhi = vdupq_n_f32(127.0f);
    const float32x4_t vlo = vdupq_n_f32(-127.0f);
    const uint32x4_t vhalf = vreinterpretq_u32_f32(vdupq_n_f32(0.5f));
    const uint32x4_t vsign = vdupq_n_u32(0x80000000u);
    auto lane = [&](const float* p) {
        float32x4_t s = vmulq_f32(vld1q_f32(p), vinv);
        s = vminq_f32(s, vhi);
        s = vmaxq_f32(s, vlo);
        const float32x4_t half = vreinterpretq_f32_u32(
            vorrq_u32(vandq_u32(vreinterpretq_u32_f32(s), vsign), vhalf));
        return vcvtq_s32_f32(vaddq_f32(s, half));
    };
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const int16x8_t q01 = vcombine_s16(vqmovn_s32(lane(x + i)),
                                           vqmovn_s32(lane(x + i + 4)));
        const int16x8_t q23 = vcombine_s16(vqmovn_s32(lane(x + i + 8)),
                                           vqmovn_s32(lane(x + i + 12)));
        vst1q_s8(out + i, vcombine_s8(vqmovn_s16(q01), vqmovn_s16(q23)));
    }
    for (; i < n; ++i) {
        float s = x[i] * inv_scale;
        s = s > 127.0f ? 127.0f : s;
        s = s < -127.0f ? -127.0f : s;
        s += s >= 0.0f ? 0.5f : -0.5f;
        out[i] = static_cast<int8_t>(static_cast<int32_t>(s));
    }
}

// Pattern tile: up to four q-register accumulators (16 lanes) stay
// live across the filter's whole kernel walk.
constexpr int kPatternLanesNeon = 16;

// Store `live` lanes of v starting at grid lane q: one vector store
// when they are all valid pixels of one output row, else lane by lane,
// dropping the lanes that fall in the pad columns (x >= ow).
inline void
storeLanesNeon(const PatternTile& t, float32x4_t v, int64_t q, int64_t live)
{
    int64_t x = q % t.wp;
    float* row = t.out + q / t.wp * t.ow;
    if (live == 4 && x + 4 <= t.ow) {
        vst1q_f32(row + x, v);
        return;
    }
    float lane[4];
    vst1q_f32(lane, v);
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
patternTileNeonImpl(const PatternTile& t)
{
    float32x4_t acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = vdupq_n_f32(t.bias);
    const int ne = NE > 0 ? NE : t.entries;
    for (int p = 0; p < t.patterns; ++p) {
        const int32_t* taps = t.taps + p * ne;
        for (int32_t k = t.stride[p]; k < t.stride[p + 1]; ++k) {
            const float* src = t.in + t.chan[k] + t.q0;
            const float* wk = t.w + static_cast<int64_t>(k) * ne;
            for (int e = 0; e < ne; ++e) {
                const float* s = src + taps[e];
                const float32x4_t wv = vdupq_n_f32(wk[e]);
                for (int v = 0; v < NV; ++v)
                    acc[v] = vaddq_f32(acc[v],
                                       vmulq_f32(wv, vld1q_f32(s + 4 * v)));
            }
        }
    }
    if (t.relu) {
        // Explicit select, as in reluNeon: NaN lanes become 0.
        const float32x4_t zero = vdupq_n_f32(0.0f);
        for (int v = 0; v < NV; ++v)
            acc[v] = vbslq_f32(vcgtq_f32(acc[v], zero), acc[v], zero);
    }
    for (int v = 0; v < NV; ++v)
        storeLanesNeon(t, acc[v], t.q0 + 4 * v,
                       std::min<int64_t>(4, t.lanes - 4 * v));
}

template <int NE>
void
patternTileNeonEntries(const PatternTile& t)
{
    // Only as many vectors as the tile has lanes.
    switch ((t.lanes + 3) / 4) {
      case 1: patternTileNeonImpl<1, NE>(t); break;
      case 2: patternTileNeonImpl<2, NE>(t); break;
      case 3: patternTileNeonImpl<3, NE>(t); break;
      default: patternTileNeonImpl<4, NE>(t); break;
    }
}

void
patternTileNeon(const PatternTile& t)
{
    if (t.entries == 4)
        patternTileNeonEntries<4>(t);
    else
        patternTileNeonEntries<0>(t);
}

}  // namespace

const SimdOps&
neonSimdOps()
{
    static const SimdOps ops = {SimdIsa::kNeon, "neon", 4,
                                accumRowsNeon, accumRowsMultiNeon,
                                axpyNeon, reluNeon,
                                kGemmMrNeon, kGemmNrNeon, gemmTileNeon,
                                kGemmI8MrNeon, kGemmI8NrNeon, gemmTileI8Neon,
                                quantizeRowI8Neon,
                                kPatternLanesNeon, patternTileNeon};
    return ops;
}

}  // namespace patdnn

#endif  // defined(__aarch64__) || defined(__ARM_NEON)
