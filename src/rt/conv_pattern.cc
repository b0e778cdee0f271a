#include "rt/conv_pattern.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace patdnn {

PatternPlan
preparePatternPlan(const FkwLayer& fkw, const LayerwiseRep& lr,
                   const DeviceSpec& device)
{
    PatternPlan plan;
    plan.entries = fkw.entries;
    plan.lowered.reserve(fkw.patterns.size());
    for (const auto& p : fkw.patterns)
        plan.lowered.push_back(lowerPattern(p));

    int npat = static_cast<int>(fkw.patterns.size());
    bool loose = !fkw.kernel_pattern.empty();

    // Scheduling granularity: split FKR groups into work items. GPU-like
    // devices map one group to one "thread block"; CPUs split groups to
    // filters_per_task for finer balancing.
    int64_t per_task = lr.tuning.filters_per_task;
    if (device.gpu_like)
        per_task = 1 << 30;  // Whole group per item.
    for (const auto& grp : fkw.groups) {
        int32_t f = grp.begin;
        while (f < grp.end) {
            int32_t fe = static_cast<int32_t>(
                std::min<int64_t>(grp.end, f + per_task));
            WorkItem item;
            item.filter_begin = f;
            item.filter_end = fe;
            // Build ops. With LRE + the tight format we schedule the
            // item's kernels input-channel-major (the paper's cohwci
            // inner order): the input plane rows stay cache-hot while
            // every filter that touches that channel accumulates, and
            // kernels sharing (channel, pattern) across filters fuse
            // into multi-filter bundles (Fig. 11 filter-level LRE).
            int32_t length = grp.length;
            if (lr.opts.lre && !loose && length > 0) {
                struct KernelRef
                {
                    int32_t ic, pid, fpos, gk;
                };
                std::vector<KernelRef> refs;
                for (int32_t ff = f; ff < fe; ++ff) {
                    int32_t kb = fkw.offset[static_cast<size_t>(ff)];
                    for (int32_t k = 0; k < length; ++k) {
                        int pid = 0;
                        for (int p = 0; p < npat; ++p) {
                            if (k >= fkw.strideAt(ff, p) &&
                                k < fkw.strideAt(ff, p + 1)) {
                                pid = p;
                                break;
                            }
                        }
                        refs.push_back({fkw.index[static_cast<size_t>(kb + k)],
                                        static_cast<int32_t>(pid), ff, kb + k});
                    }
                }
                std::sort(refs.begin(), refs.end(),
                          [](const KernelRef& a, const KernelRef& b) {
                              if (a.ic != b.ic)
                                  return a.ic < b.ic;
                              if (a.pid != b.pid)
                                  return a.pid < b.pid;
                              return a.fpos < b.fpos;
                          });
                // Bundles are capped at 16 filters: the executor's
                // pointer tables and the multi-filter kernels size for
                // that, so an oversized tuning value (hand-written or
                // from an artifact) must be clamped here, where the
                // ops are built, not silently truncated at run time.
                int max_bundle = std::min(16, std::max(1, lr.tuning.unroll_oc));
                size_t i = 0;
                while (i < refs.size()) {
                    size_t j = i + 1;
                    while (j < refs.size() &&
                           static_cast<int>(j - i) < max_bundle &&
                           refs[j].ic == refs[i].ic && refs[j].pid == refs[i].pid)
                        ++j;
                    PatternOp op;
                    op.filter_begin = refs[i].fpos;
                    op.filter_count = static_cast<int32_t>(j - i);
                    op.pattern_id = refs[i].pid;
                    op.input_channel = refs[i].ic;
                    for (size_t r = i; r < j; ++r) {
                        op.kernel_index.push_back(refs[r].gk);
                        op.filter_pos.push_back(refs[r].fpos);
                    }
                    item.ops.push_back(std::move(op));
                    i = j;
                }
            } else {
                // Per-kernel ops (loose format dispatches per kernel —
                // the paper's branchy No-opt code path).
                for (int32_t ff = f; ff < fe; ++ff) {
                    int32_t kb = fkw.offset[static_cast<size_t>(ff)];
                    int32_t ke = fkw.offset[static_cast<size_t>(ff) + 1];
                    for (int32_t gk = kb; gk < ke; ++gk) {
                        PatternOp op;
                        op.filter_begin = ff;
                        op.filter_count = 1;
                        if (loose) {
                            op.pattern_id =
                                fkw.kernel_pattern[static_cast<size_t>(gk)];
                        } else {
                            int32_t k = gk - kb;
                            for (int p = 0; p < npat; ++p) {
                                if (k >= fkw.strideAt(ff, p) &&
                                    k < fkw.strideAt(ff, p + 1)) {
                                    op.pattern_id = p;
                                    break;
                                }
                            }
                        }
                        op.input_channel = fkw.index[static_cast<size_t>(gk)];
                        op.kernel_index.push_back(gk);
                        op.filter_pos.push_back(ff);
                        item.ops.push_back(std::move(op));
                    }
                }
            }
            for (const auto& op : item.ops)
                item.macs += static_cast<int64_t>(op.filter_count) * plan.entries;
            plan.items.push_back(std::move(item));
            f = fe;
        }
    }
    return plan;
}

PatternConv::PatternConv(ConvDesc desc, const FkwLayer* fkw, LayerwiseRep lr,
                         DeviceSpec device)
    : desc_(std::move(desc)), fkw_(fkw), lr_(std::move(lr)),
      device_(std::move(device)), ops_(&resolveSimdOps(device_.simd_isa))
{
    PATDNN_CHECK_EQ(desc_.groups, 1, "PatternConv supports groups == 1");
    PATDNN_CHECK_EQ(fkw_->in_channels, desc_.cin, "fkw channels");
    PATDNN_CHECK_EQ(fkw_->filters, desc_.cout, "fkw filters");
    plan_ = preparePatternPlan(*fkw_, lr_, device_);

    // The output-stationary path needs unit stride (so every tap is a
    // fixed offset on the padded-width grid), the tight format (pattern
    // runs encoded by the stride array) and uniform kernel sizes; the
    // No-opt and +Reorder ablation levels keep their own code shapes.
    const int64_t hp = desc_.h + 2 * desc_.pad, wp = desc_.w + 2 * desc_.pad;
    const int64_t plane = hp * wp;
    bool uniform = true;
    for (const PatternKernel& pk : plan_.lowered)
        uniform = uniform && pk.entries == fkw_->entries;
    direct_ = desc_.stride == 1 && desc_.dilation == 1 &&
              fkw_->kernel_pattern.empty() && lr_.opts.reorder &&
              lr_.opts.lre && uniform &&
              desc_.cin * plane <= std::numeric_limits<int32_t>::max();
    if (!direct_)
        return;
    chan_off_.reserve(fkw_->index.size());
    for (int32_t ic : fkw_->index)
        chan_off_.push_back(static_cast<int32_t>(ic * plane));
    for (const PatternKernel& pk : plan_.lowered)
        for (int e = 0; e < pk.entries; ++e)
            taps_.push_back(static_cast<int32_t>(pk.dy[e] * wp + pk.dx[e]));
}

void
PatternConv::runItem(const WorkItem& item, const float* in, float* out,
                     int64_t /*b*/) const
{
    const ConvDesc& d = desc_;
    int64_t oh = d.outH(), ow = d.outW();
    const TuneParams& t = lr_.tuning;
    bool tile_spatial = t.blocked && t.permute == LoopPermutation::kCoHWCi;
    int64_t tile_oh = tile_spatial ? std::max<int64_t>(1, t.tile_oh) : oh;

    // Resolve output plane pointers (original channel via reorder array).
    auto out_plane = [&](int32_t fpos) {
        int32_t oc = fkw_->reorder[static_cast<size_t>(fpos)];
        return out + static_cast<int64_t>(oc) * oh * ow;
    };

    PlaneGeom g;
    g.h = d.h;
    g.w = d.w;
    g.oh = oh;
    g.ow = ow;
    g.pad = d.pad;
    g.stride = d.stride;
    g.x0 = 0;
    g.x1 = ow;

    if (!lr_.opts.reorder && !lr_.opts.lre) {
        // No-opt execution (Fig. 7 left): pixel loops outside, a
        // per-kernel pattern dispatch inside — one non-inlined call
        // with full bounds checks per (pixel, kernel), plus the input-
        // channel indirection per step. This is the baseline the FKR
        // and LRE speedups in Fig. 13 are measured against.
        g.y0 = 0;
        g.y1 = oh;
        size_t i = 0;
        while (i < item.ops.size()) {
            int32_t f = item.ops[i].filter_begin;
            size_t j = i;
            while (j < item.ops.size() && item.ops[j].filter_begin == f)
                ++j;
            float* optr = out_plane(f);
            for (int64_t y = 0; y < oh; ++y) {
                for (int64_t x = 0; x < ow; ++x) {
                    float acc = 0.0f;
                    for (size_t k = i; k < j; ++k) {
                        const PatternOp& op = item.ops[k];
                        const PatternKernel& pk =
                            plan_.lowered[static_cast<size_t>(op.pattern_id)];
                        const float* in_plane =
                            in + static_cast<int64_t>(op.input_channel) * d.h * d.w;
                        const float* wptr =
                            fkw_->weights.data() +
                            static_cast<int64_t>(op.kernel_index[0]) * plan_.entries;
                        acc += guardedPatternDot(pk, wptr, in_plane, g, y, x);
                    }
                    optr[y * ow + x] += acc;
                }
            }
            i = j;
        }
        return;
    }

    auto run_op = [&](const PatternOp& op, int64_t y0, int64_t y1) {
        g.y0 = y0;
        g.y1 = y1;
        const PatternKernel& pk =
            plan_.lowered[static_cast<size_t>(op.pattern_id)];
        const float* in_plane =
            in + static_cast<int64_t>(op.input_channel) * d.h * d.w;
        if (op.filter_count > 1) {
            // Plan construction caps bundles at 16 (preparePatternPlan).
            PATDNN_CHECK_LE(op.filter_count, 16, "multi-filter bundle size");
            const float* wptrs[16];
            float* optrs[16];
            int count = op.filter_count;
            for (int f = 0; f < count; ++f) {
                wptrs[f] = fkw_->weights.data() +
                           static_cast<int64_t>(op.kernel_index[static_cast<size_t>(f)]) *
                               plan_.entries;
                optrs[f] = out_plane(op.filter_pos[static_cast<size_t>(f)]);
            }
            kernelAccumulateMultiFilter(pk, wptrs, in_plane, optrs, count, g,
                                        ops_);
        } else {
            const float* wptr = fkw_->weights.data() +
                                static_cast<int64_t>(op.kernel_index[0]) *
                                    plan_.entries;
            float* optr = out_plane(op.filter_begin);
            if (lr_.opts.lre)
                kernelAccumulateLre(pk, wptr, in_plane, optr, g, t.unroll_w,
                                    ops_);
            else
                kernelAccumulateNoLre(pk, wptr, in_plane, optr, g);
        }
    };

    if (t.permute == LoopPermutation::kCoHWCi) {
        // Spatial tile outer, kernels inner: inputs for the tile stay
        // cache-resident while every kernel of the item visits them.
        for (int64_t y0 = 0; y0 < oh; y0 += tile_oh) {
            int64_t y1 = std::min(oh, y0 + tile_oh);
            for (const auto& op : item.ops)
                run_op(op, y0, y1);
        }
    } else {
        // Kernel outer, full plane inner (weight-stationary). Blocked
        // variant still tiles rows inside each op for cache reuse.
        int64_t tile = t.blocked ? std::max<int64_t>(1, t.tile_oh) : oh;
        for (const auto& op : item.ops)
            for (int64_t y0 = 0; y0 < oh; y0 += tile)
                run_op(op, y0, std::min(oh, y0 + tile));
    }
}

void
PatternConv::runDirect(const Tensor& in, Tensor& out, const Epilogue& ep) const
{
    const ConvDesc& d = desc_;
    const FkwLayer& fkw = *fkw_;
    const int64_t n = in.shape().dim(0);
    const int64_t oh = d.outH(), ow = d.outW();
    const int64_t wp = d.w + 2 * d.pad;
    const int64_t plane = (d.h + 2 * d.pad) * wp;
    const int64_t image = d.cin * plane;

    // Pad once, serially (a few microseconds even at conv1_2), into a
    // per-call scratch: run() is const and may race across sessions.
    // The zero fill is the pad ring, and the slack past the last plane
    // keeps the junk lanes' whole-vector loads inside the allocation.
    Tensor padded(Shape{n * image + ops_->pattern_lanes});
    for (int64_t c = 0; c < n * d.cin; ++c) {
        const float* src = in.data() + c * d.h * d.w;
        float* dst = padded.data() + c * plane + d.pad * wp + d.pad;
        for (int64_t y = 0; y < d.h; ++y)
            std::copy(src + y * d.w, src + (y + 1) * d.w, dst + y * wp);
    }

    // Output pixel (y, x) is lane q = y * wp + x; the grid ends at the
    // last valid pixel, and the x >= ow lanes in between are junk.
    const int64_t grid = (oh - 1) * wp + ow;
    const int64_t tile = ops_->pattern_lanes;
    const int npat = static_cast<int>(fkw.patterns.size());
    auto run_filter = [&](int64_t b, int64_t f) {
        const int32_t kb = fkw.offset[static_cast<size_t>(f)];
        const int32_t oc = fkw.reorder[static_cast<size_t>(f)];
        PatternTile t;
        t.in = padded.data() + b * image;
        t.w = fkw.weights.data() + static_cast<int64_t>(kb) * fkw.entries;
        t.chan = chan_off_.data() + kb;
        t.stride = fkw.stride.data() + f * (npat + 1);
        t.taps = taps_.data();
        t.patterns = npat;
        t.entries = fkw.entries;
        t.bias = ep.bias ? (*ep.bias)[oc] : 0.0f;
        t.relu = ep.relu;
        t.out = out.data() + (b * d.cout + oc) * oh * ow;
        t.wp = wp;
        t.ow = ow;
        for (int64_t q0 = 0; q0 < grid; q0 += tile) {
            t.q0 = q0;
            t.lanes = std::min(tile, grid - q0);
            ops_->pattern_tile(t);
        }
    };

    // One fork-join over every (image, filter) unit, split by cost: a
    // filter costs its kernel count plus one for its stores. FKR sorts
    // filters by kernel count, so equal-count chunks would be unequal.
    const int64_t filters = d.cout;
    const int64_t per_image = fkw.kernelCount() + filters;
    const int64_t total = n * per_image;
    auto unit_at = [&](int64_t cost) {
        // First unit whose cost prefix reaches `cost`.
        const int64_t b = cost / per_image, rem = cost % per_image;
        int64_t lo = 0, hi = filters;
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (fkw.offset[static_cast<size_t>(mid)] + mid < rem)
                lo = mid + 1;
            else
                hi = mid;
        }
        return b * filters + lo;
    };
    const int64_t workers = device_.pool().numThreads();
    device_.pool().parallelChunks(workers, [&](int64_t w0, int64_t w1) {
        const int64_t u1 = unit_at(total * w1 / workers);
        for (int64_t u = unit_at(total * w0 / workers); u < u1; ++u)
            run_filter(u / filters, u % filters);
    });
}

void
PatternConv::run(const Tensor& in, Tensor& out, const Epilogue& ep) const
{
    if (direct_) {
        runDirect(in, out, ep);
        return;
    }
    const ConvDesc& d = desc_;
    int64_t n = in.shape().dim(0);
    int64_t oh = d.outH(), ow = d.outW();
    for (int64_t b = 0; b < n; ++b) {
        float* obase = out.data() + b * d.cout * oh * ow;
        const float* ibase = in.data() + b * d.cin * d.h * d.w;
        // Bias init.
        device_.pool().parallelFor(d.cout, [&](int64_t oc) {
            float bias = ep.bias ? (*ep.bias)[oc] : 0.0f;
            float* optr = obase + oc * oh * ow;
            std::fill(optr, optr + oh * ow, bias);
        });
        // Accumulate all work items.
        device_.pool().parallelChunks(
            static_cast<int64_t>(plan_.items.size()),
            [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i)
                    runItem(plan_.items[static_cast<size_t>(i)], ibase, obase, b);
            });
        if (ep.relu) {
            device_.pool().parallelFor(d.cout, [&](int64_t oc) {
                ops_->relu(obase + oc * oh * ow, oh * ow);
            });
        }
    }
}

}  // namespace patdnn
