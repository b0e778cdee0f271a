/**
 * @file
 * Runtime SIMD dispatch for the pattern micro-kernels.
 *
 * PatDNN's generated mobile code leans on the vector units (NEON on the
 * paper's Snapdragon/Kirin targets); this layer is the host-side
 * equivalent. Each ISA provides one table of vectorized primitives
 * (SimdOps) for the hot inner loops — the output-stationary pattern
 * tile, the LRE interior accumulation, the filter-level multi-filter
 * fan-out, the CSR row saxpy, the ReLU epilogue and the packed-GEMM
 * tile kernel the dense im2col/Winograd executors run on — and one
 * binary selects the best table at load time from CPU features (AVX2
 * on x86-64, NEON on aarch64, scalar otherwise).
 *
 * Determinism contract: every table computes bit-identical results to
 * scalarSimdOps() — same per-element operation order, plain IEEE mul
 * then add, no FMA contraction — so executors can switch ISA freely
 * (and tests can diff exactly). Vector kernels only widen the x loop;
 * they never reassociate the per-entry accumulation chain.
 *
 * Build gating: PATDNN_ENABLE_SIMD=OFF compiles only the scalar table.
 * The AVX2 translation unit is compiled with -mavx2 but its table is
 * only ever returned after a cpuid check, so one binary runs anywhere.
 * Adding an ISA = one kernels_<isa>.cc defining a SimdOps table + a
 * case in simdOpsFor(); see docs/ARCHITECTURE.md.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace patdnn {

/** Instruction sets a kernel table can be specialized for. */
enum class SimdIsa : uint32_t
{
    kScalar = 0,  ///< Portable C++ (also the exactness reference).
    kAvx2 = 1,    ///< x86-64 AVX2, 8 floats per vector.
    kNeon = 2,    ///< aarch64 NEON, 4 floats per vector.
};

/** Display name ("scalar" / "avx2" / "neon"). */
const char* isaName(SimdIsa isa);

/** Parse an ISA name; false if `s` names no known ISA. */
bool parseIsaName(const std::string& s, SimdIsa* out);

/**
 * One call of SimdOps::pattern_tile: one filter's outputs at `lanes`
 * consecutive pixels of the padded-width grid (q = y * wp + x, the
 * output pixel (y, x) for x < ow; lanes with x >= ow are junk).
 *
 * The input is the zero-padded image ([cin][hp][wp] planes), so the
 * tap of kernel k, entry e at lane i is the unguarded load
 *   in[chan[k] + q0 + i + taps[p * entries + e]]
 * with p the kernel's pattern and taps[...] = dy * wp + dx. Kernels
 * are walked in FKW storage order: pattern p's kernels are
 * [stride[p], stride[p + 1]) of the filter's `chan` / `w` arrays.
 */
struct PatternTile
{
    const float* in = nullptr;       ///< Padded image (plane 0, q = 0).
    const float* w = nullptr;        ///< Filter weights, `entries` per kernel.
    const int32_t* chan = nullptr;   ///< Per kernel: its channel's plane offset.
    const int32_t* stride = nullptr; ///< FKW stride row (patterns + 1 entries).
    const int32_t* taps = nullptr;   ///< [patterns][entries] tap offsets.
    int patterns = 0;
    int entries = 0;
    float bias = 0.0f;
    bool relu = false;
    float* out = nullptr;  ///< Output plane [oh][ow] of this filter.
    int64_t q0 = 0;        ///< First lane on the padded-width grid.
    int64_t lanes = 0;     ///< Lanes in this tile, 1..pattern_lanes.
    int64_t wp = 0;        ///< Padded input width.
    int64_t ow = 0;        ///< Output width (lanes with x >= ow are dropped).
};

/**
 * One ISA's vectorized primitives. All functions tolerate unaligned
 * pointers and any n >= 0; `out`/`y` must not alias the inputs.
 */
struct SimdOps
{
    SimdIsa isa = SimdIsa::kScalar;
    const char* name = "scalar";
    int width = 1;  ///< Floats per vector step (tuning hint).

    /**
     * LRE interior accumulation over `n` output columns:
     *   out[i] = (((out[i] + w[0]*rows[0][i]) + w[1]*rows[1][i]) + ...)
     * for e in [0, live). `unroll` is the tuner's register-block width
     * (columns per blocked step); ISAs treat it as a hint.
     */
    void (*accum_rows)(const float* const* rows, const float* w, int live,
                       float* out, int64_t n, int unroll);

    /**
     * Filter-level LRE interior (Fig. 11 right): load rows[e][i] once,
     * fan out to `count` filters:
     *   outs[f][i] += sum_e w[f][wsel[e]] * rows[e][i]
     * with the same sequential per-entry order as accum_rows.
     */
    void (*accum_rows_multi)(const float* const* rows, int live,
                             const int* wsel, const float* const* w,
                             float* const* outs, int count, int64_t n);

    /** y[i] += a * x[i] (the CSR stride-1 inner row update). */
    void (*axpy)(float a, const float* x, float* y, int64_t n);

    /** y[i] = max(0, y[i]) (fused ReLU epilogue). */
    void (*relu)(float* y, int64_t n);

    /// Full tile footprint of gemm_tile: rows per LHS panel step.
    int gemm_mr = 1;
    /// Full tile footprint of gemm_tile: columns per RHS panel step.
    int gemm_nr = 1;

    /**
     * Packed-GEMM tile micro-kernel (the mmt4d-style dense inner loop;
     * rt/gemm_packed.h owns the packing and the cache-blocked outer
     * loops). `a_panel` is one LHS tile panel slice laid out
     * [kc][gemm_mr], `b_panel` one RHS tile panel slice laid out
     * [kc][gemm_nr]; `c` is the [mr x nr] output tile at row stride
     * `ldc`, already holding the accumulation state (bias or the
     * previous K block's partial sums). mr/nr are the live extents
     * (< gemm_mr/gemm_nr only on edge tiles; the padded panel lanes
     * hold zeros and are never stored).
     *
     * Numerics: for every output element the chain is
     *   acc = c[m*ldc+n]; for k in [0,kc): acc += a[k][m] * b[k][n];
     * — sequential in k, mul then add, no FMA. The chain runs through
     * the C element itself, so splitting K into blocks is bit-neutral,
     * and every ISA produces bit-identical results regardless of its
     * gemm_mr/gemm_nr footprint (tiling only partitions the m/n space,
     * never the per-element k chain).
     */
    void (*gemm_tile)(const float* a_panel, const float* b_panel, float* c,
                      int64_t ldc, int64_t kc, int mr, int nr);

    /// Full tile footprint of gemm_tile_i8: rows per LHS panel step.
    int gemm_i8_mr = 1;
    /// Full tile footprint of gemm_tile_i8: columns per RHS panel step.
    int gemm_i8_nr = 1;

    /**
     * Int8 packed-GEMM tile micro-kernel: i8×i8 products accumulated in
     * i32 (the quantized dense inner loop; rt/gemm_packed.h owns the
     * packing and blocked outer loops). Panels are K-PAIR interleaved so
     * the AVX2 kernel can feed `_mm256_madd_epi16`-style pairwise
     * multiply-adds straight from memory:
     *
     *   a_panel: [ceil(kc/2)][gemm_i8_mr][2]  (row tile,   k pairs inner)
     *   b_panel: [ceil(kc/2)][gemm_i8_nr][2]  (column tile, k pairs inner)
     *
     * i.e. logical element (k, m) lives at (k/2)*mr*2 + m*2 + (k%2).
     * The LHS panel is widened to i16 at pack time (values still in
     * [-127, 127]) so one (a0, a1) pair is a naturally aligned 4-byte
     * unit the kernel can broadcast straight from memory (vpbroadcastd
     * on AVX2) instead of sign-extending per tile visit; the RHS panel
     * stays i8 since each row is loaded once per k-pair. When kc is odd
     * the trailing k-lane of the last pair is zero in both panels (the
     * packers guarantee this). `c` is the [mr x nr] i32 tile at row
     * stride `ldc`, already holding accumulation state; mr/nr are live
     * extents as in gemm_tile, and padded lanes are never stored.
     *
     * Numerics: every product of two values in [-127, 127] and every
     * running sum fits i32 exactly for any practical kc (|a*b| <= 16129,
     * so ~133k k-steps of headroom), so unlike the f32 tile there is no
     * ordering contract to respect — integer accumulation is exact and
     * every ISA is bit-identical by construction.
     */
    void (*gemm_tile_i8)(const int16_t* a_panel, const int8_t* b_panel,
                         int32_t* c, int64_t ldc, int64_t kc, int mr, int nr);

    /**
     * Activation-side row quantization feeding gemm_tile_i8:
     * out[i] = clamp(round(x[i] * inv_scale), -127, 127) with round
     * half away from zero — prune/quant.h's quantizeValue contract.
     * Every table performs the identical per-lane f32 sequence
     * (multiply, clamp, add sign-matched 0.5, truncate toward zero),
     * so results are bit-identical across ISAs for finite inputs.
     * This runs over the whole im2col patch matrix once per quantized
     * conv call, which makes it the second-hottest loop of the int8
     * path after the GEMM itself.
     */
    void (*quantize_row_i8)(const float* x, int64_t n, float inv_scale,
                            int8_t* out);

    /// Largest PatternTile::lanes pattern_tile accepts (a few vectors).
    int pattern_lanes = 1;

    /**
     * Output-stationary pattern tile (the Fig. 7 code shape, see
     * PatternTile): the accumulators stay in registers across all of
     * the filter's kernels, then ReLU (if asked) runs on them and each
     * valid lane is stored exactly once; junk lanes are never stored.
     * A table may compute whole vectors, so the padded input must be
     * readable `width` floats past the last valid lane's taps.
     *
     * Numerics: for every lane the chain is
     *   acc = bias; for p, for k in p's kernels, for e in [0, entries):
     *     acc += w[k * entries + e] * tap;
     *   out = relu ? max(0, acc) : acc;
     * — mul then add, no FMA — so the result is bit-identical across
     * ISAs, lane-tile widths and the caller's thread split.
     */
    void (*pattern_tile)(const PatternTile& t);
};

/** The portable reference table; always available. */
const SimdOps& scalarSimdOps();

/**
 * Table for `isa`, or nullptr when it was not compiled in
 * (PATDNN_ENABLE_SIMD=OFF / wrong arch) or this CPU lacks the feature.
 */
const SimdOps* simdOpsFor(SimdIsa isa);

/** ISAs usable in this process (compiled in + CPU-supported). */
std::vector<SimdIsa> availableSimdIsas();

/**
 * Best ISA for this process, decided once at first use: the widest
 * available table, overridable with PATDNN_SIMD=scalar|avx2|neon (an
 * unavailable override falls back to scalar with a warning).
 */
SimdIsa detectSimdIsa();

/** Table for `isa` if available, else the scalar table (never null). */
const SimdOps& resolveSimdOps(SimdIsa isa);

}  // namespace patdnn
