/**
 * @file
 * Portable scalar SimdOps table: the exactness reference every vector
 * table must match bit-for-bit (see dispatch.h). The accumulation
 * order here — output loaded once, entries added in index order —
 * defines the numerics of the whole pattern engine.
 */
#include "rt/simd/dispatch.h"

#include <algorithm>

namespace patdnn {
namespace {

void
accumRowsScalar(const float* const* rows, const float* w, int live, float* out,
                int64_t n, int unroll)
{
    const int uw = std::max(1, unroll);
    int64_t i = 0;
    // Register-blocked main loop: `uw` independent accumulators per
    // step (the tuner's unroll_w knob; the compiler maps them onto
    // whatever vector width the baseline target has).
    for (; i + uw <= n; i += uw) {
        for (int u = 0; u < uw; ++u) {
            float acc = out[i + u];
            for (int e = 0; e < live; ++e)
                acc += w[e] * rows[e][i + u];
            out[i + u] = acc;
        }
    }
    for (; i < n; ++i) {
        float acc = out[i];
        for (int e = 0; e < live; ++e)
            acc += w[e] * rows[e][i];
        out[i] = acc;
    }
}

void
accumRowsMultiScalar(const float* const* rows, int live, const int* wsel,
                     const float* const* w, float* const* outs, int count,
                     int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
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
axpyScalar(float a, const float* x, float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

void
reluScalar(float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = std::max(0.0f, y[i]);
}

// Packed-GEMM tile footprint. 4x4 keeps 16 independent accumulators
// live, which the baseline target maps onto whatever registers it has;
// correctness never depends on these numbers (see dispatch.h).
constexpr int kGemmMrScalar = 4;
constexpr int kGemmNrScalar = 4;

void
gemmTileScalar(const float* a_panel, const float* b_panel, float* c,
               int64_t ldc, int64_t kc, int mr, int nr)
{
    // The per-element k chain — load C once, add a*b in k order, store
    // once — is the numerics contract every vector tile kernel
    // reproduces lane for lane. The tile accumulators live in locals so
    // the k loop runs over registers, not memory.
    float acc[kGemmMrScalar][kGemmNrScalar];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    for (int64_t k = 0; k < kc; ++k) {
        const float* a = a_panel + k * kGemmMrScalar;
        const float* b = b_panel + k * kGemmNrScalar;
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

// Int8 tile footprint: small and square — the scalar table is the
// conformance reference, not a speed play (see dispatch.h: integer
// accumulation is exact, so any footprint gives identical results).
constexpr int kGemmI8MrScalar = 4;
constexpr int kGemmI8NrScalar = 4;

void
gemmTileI8Scalar(const int16_t* a_panel, const int8_t* b_panel, int32_t* c,
                 int64_t ldc, int64_t kc, int mr, int nr)
{
    int32_t acc[kGemmI8MrScalar][kGemmI8NrScalar];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    int64_t kp = (kc + 1) / 2;  // Panels are k-pair interleaved.
    for (int64_t k = 0; k < kp; ++k) {
        const int16_t* a = a_panel + k * kGemmI8MrScalar * 2;
        const int8_t* b = b_panel + k * kGemmI8NrScalar * 2;
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

// The quantize_row_i8 reference: clamp-then-round restated branch-free
// so adding the sign-matched 0.5 and truncating toward zero is exactly
// round half away from zero (dispatch.h) — and so the compiler can
// vectorize the flat loop even at the baseline ISA.
void
quantizeRowI8Scalar(const float* x, int64_t n, float inv_scale, int8_t* out)
{
    for (int64_t i = 0; i < n; ++i) {
        float s = x[i] * inv_scale;
        s = s > 127.0f ? 127.0f : s;
        s = s < -127.0f ? -127.0f : s;
        s += s >= 0.0f ? 0.5f : -0.5f;
        out[i] = static_cast<int8_t>(static_cast<int32_t>(s));
    }
}

// Pattern tile footprint: eight lane accumulators, one vector's worth
// on most targets; the tile width never changes a lane's chain.
constexpr int kPatternLanesScalar = 8;

void
patternTileScalar(const PatternTile& t)
{
    const int64_t n = t.lanes;
    float acc[kPatternLanesScalar];
    for (int64_t i = 0; i < n; ++i)
        acc[i] = t.bias;
    for (int p = 0; p < t.patterns; ++p) {
        const int32_t* taps = t.taps + p * t.entries;
        for (int32_t k = t.stride[p]; k < t.stride[p + 1]; ++k) {
            const float* src = t.in + t.chan[k] + t.q0;
            const float* wk = t.w + static_cast<int64_t>(k) * t.entries;
            for (int e = 0; e < t.entries; ++e) {
                const float* s = src + taps[e];
                const float wv = wk[e];
                for (int64_t i = 0; i < n; ++i)
                    acc[i] += wv * s[i];
            }
        }
    }
    // Lane q0 + i is output pixel (y, x) of the padded-width grid;
    // lanes with x >= ow fall in the pad columns and are dropped.
    int64_t x = t.q0 % t.wp;
    float* row = t.out + t.q0 / t.wp * t.ow;
    for (int64_t i = 0; i < n; ++i) {
        if (x < t.ow)
            row[x] = t.relu ? std::max(0.0f, acc[i]) : acc[i];
        if (++x == t.wp) {
            x = 0;
            row += t.ow;
        }
    }
}

}  // namespace

const SimdOps&
scalarSimdOps()
{
    static const SimdOps ops = {SimdIsa::kScalar, "scalar", 1,
                                accumRowsScalar, accumRowsMultiScalar,
                                axpyScalar, reluScalar,
                                kGemmMrScalar, kGemmNrScalar, gemmTileScalar,
                                kGemmI8MrScalar, kGemmI8NrScalar,
                                gemmTileI8Scalar, quantizeRowI8Scalar,
                                kPatternLanesScalar, patternTileScalar};
    return ops;
}

}  // namespace patdnn
