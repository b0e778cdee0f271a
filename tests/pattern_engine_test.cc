/** @file Pattern engine internals: plans, bundles, LR rendering. */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "nn/zoo.h"
#include "prune/projections.h"
#include "rt/conv_pattern.h"
#include "sparse/fkw.h"

namespace patdnn {
namespace {

struct Built
{
    ConvDesc desc{"t", 8, 16, 3, 3, 12, 12, 1, 1, 1, 1};
    Tensor weight;
    PatternSet set = canonicalPatternSet(6);
    FkwLayer fkw;

    explicit Built(uint64_t seed, bool reorder = true, int64_t alpha = 48)
    {
        Rng rng(seed);
        weight = Tensor(Shape{desc.cout, desc.cin, 3, 3});
        weight.fillNormal(rng);
        PatternAssignment asg = projectJoint(weight, set, alpha);
        FkrOptions opts;
        opts.reorder_filters = reorder;
        opts.similarity_within_group = reorder;
        opts.reorder_kernels = reorder;
        FkrResult fkr = filterKernelReorder(asg, opts);
        fkw = buildFkw(weight, set, asg, fkr);
    }
};

TEST(PatternPlan, CoversEveryKernelExactlyOnce)
{
    Built b(1);
    LayerwiseRep lr;
    lr.conv = b.desc;
    PatternPlan plan = preparePatternPlan(b.fkw, lr, makeCpuDevice(4));
    std::vector<int> seen(static_cast<size_t>(b.fkw.kernelCount()), 0);
    for (const auto& item : plan.items)
        for (const auto& op : item.ops)
            for (int32_t gk : op.kernel_index)
                seen[static_cast<size_t>(gk)] += 1;
    for (int v : seen)
        EXPECT_EQ(v, 1);
}

TEST(PatternPlan, BundlesOnlyFormWithLreAndMatchingKernels)
{
    Built b(2);
    LayerwiseRep lr;
    lr.conv = b.desc;
    lr.opts.lre = false;
    PatternPlan no_lre = preparePatternPlan(b.fkw, lr, makeCpuDevice(4));
    for (const auto& item : no_lre.items)
        for (const auto& op : item.ops)
            EXPECT_EQ(op.filter_count, 1);

    lr.opts.lre = true;
    PatternPlan with_lre = preparePatternPlan(b.fkw, lr, makeCpuDevice(4));
    for (const auto& item : with_lre.items)
        for (const auto& op : item.ops) {
            // Bundled kernels must agree on pattern and input channel.
            for (size_t i = 0; i < op.kernel_index.size(); ++i)
                EXPECT_EQ(b.fkw.index[static_cast<size_t>(
                              op.kernel_index[i])],
                          op.input_channel);
        }
}

TEST(PatternPlan, GpuDeviceMapsGroupsToSingleItems)
{
    Built b(3);
    LayerwiseRep lr;
    lr.conv = b.desc;
    PatternPlan plan = preparePatternPlan(b.fkw, lr, makeGpuDevice());
    EXPECT_EQ(plan.items.size(), b.fkw.groups.size());
}

TEST(PatternPlan, CpuSplitsLargeGroups)
{
    Built b(4);
    LayerwiseRep lr;
    lr.conv = b.desc;
    lr.tuning.filters_per_task = 2;
    PatternPlan plan = preparePatternPlan(b.fkw, lr, makeCpuDevice(4));
    EXPECT_GE(plan.items.size(), b.fkw.groups.size());
    for (const auto& item : plan.items)
        EXPECT_LE(item.filter_end - item.filter_begin, 2);
}

TEST(PatternPlan, LooseFormatFallsBackToPerKernelDispatch)
{
    Built b(5, /*reorder=*/false);
    ASSERT_FALSE(b.fkw.kernel_pattern.empty());
    LayerwiseRep lr;
    lr.conv = b.desc;
    lr.opts.reorder = false;
    PatternPlan plan = preparePatternPlan(b.fkw, lr, makeCpuDevice(4));
    int64_t ops = 0;
    for (const auto& item : plan.items) {
        for (const auto& op : item.ops)
            EXPECT_EQ(op.filter_count, 1);
        ops += static_cast<int64_t>(item.ops.size());
    }
    EXPECT_EQ(ops, b.fkw.kernelCount());
}

TEST(MicroKernels, LoweredPatternOffsetsMatchMask)
{
    Pattern p(3, 3, std::vector<int>{4, 0, 5, 7});
    PatternKernel pk = lowerPattern(p);
    EXPECT_EQ(pk.entries, 4);
    // Positions ascending: 0 -> (0,0), 4 -> (1,1), 5 -> (1,2), 7 -> (2,1).
    EXPECT_EQ(pk.dy[0], 0);
    EXPECT_EQ(pk.dx[0], 0);
    EXPECT_EQ(pk.dy[1], 1);
    EXPECT_EQ(pk.dx[1], 1);
    EXPECT_EQ(pk.dy[3], 2);
    EXPECT_EQ(pk.dx[3], 1);
}

TEST(MicroKernels, LreAndNoLreProduceIdenticalResults)
{
    Rng rng(6);
    Pattern p(3, 3, std::vector<int>{4, 1, 3, 5});
    PatternKernel pk = lowerPattern(p);
    float weights[4];
    for (auto& w : weights)
        w = rng.normal();
    int64_t h = 9, w_ = 11;
    Tensor in(Shape{h, w_});
    in.fillUniform(rng, -1.0f, 1.0f);
    PlaneGeom g;
    g.h = h;
    g.w = w_;
    g.oh = h;
    g.ow = w_;
    g.pad = 1;
    g.stride = 1;
    g.y0 = 0;
    g.y1 = h;
    g.x0 = 0;
    g.x1 = w_;
    Tensor out_a(Shape{h, w_}), out_b(Shape{h, w_});
    kernelAccumulateLre(pk, weights, in.data(), out_a.data(), g, 8);
    kernelAccumulateNoLre(pk, weights, in.data(), out_b.data(), g);
    EXPECT_LT(Tensor::maxAbsDiff(out_a, out_b), 1e-5);
}

TEST(MicroKernels, MultiFilterMatchesRepeatedSingle)
{
    Rng rng(7);
    Pattern p(3, 3, std::vector<int>{4, 0, 2, 6});
    PatternKernel pk = lowerPattern(p);
    float w0[4], w1[4];
    for (int i = 0; i < 4; ++i) {
        w0[i] = rng.normal();
        w1[i] = rng.normal();
    }
    int64_t h = 7, w_ = 8;
    Tensor in(Shape{h, w_});
    in.fillUniform(rng, -1.0f, 1.0f);
    PlaneGeom g{h, w_, h, w_, 1, 1, 0, h, 0, w_};
    Tensor a0(Shape{h, w_}), a1(Shape{h, w_});
    Tensor b0(Shape{h, w_}), b1(Shape{h, w_});
    const float* ws[2] = {w0, w1};
    float* outs[2] = {a0.data(), a1.data()};
    kernelAccumulateMultiFilter(pk, ws, in.data(), outs, 2, g);
    kernelAccumulateLre(pk, w0, in.data(), b0.data(), g, 4);
    kernelAccumulateLre(pk, w1, in.data(), b1.data(), g, 4);
    EXPECT_LT(Tensor::maxAbsDiff(a0, b0), 1e-5);
    EXPECT_LT(Tensor::maxAbsDiff(a1, b1), 1e-5);
}

// ---------------------------------------------------------------------------
// Output-stationary path vs the reference convolution
// ---------------------------------------------------------------------------

/** A pattern-pruned layer of geometry `d`, packed tight after FKR. */
struct PackedLayer
{
    ConvDesc desc;
    Tensor weight;  ///< Pruned dense OIHW, the reference's weights.
    Tensor bias;
    FkwLayer fkw;

    PackedLayer(const ConvDesc& d, uint64_t seed) : desc(d)
    {
        Rng rng(seed);
        weight = Tensor(Shape{d.cout, d.cin, 3, 3});
        weight.fillNormal(rng);
        bias = Tensor(Shape{d.cout});
        bias.fillNormal(rng);
        fkw = pruneAndPack(weight, canonicalPatternSet(8),
                           std::max<int64_t>(1, d.cout * d.cin / 4));
    }

    PatternConv engine(const DeviceSpec& dev) const
    {
        LayerwiseRep lr;
        lr.conv = desc;
        return PatternConv(desc, &fkw, lr, dev);
    }
};

Tensor
randomInput(const ConvDesc& d, int64_t batch, uint64_t seed)
{
    Tensor in(Shape{batch, d.cin, d.h, d.w});
    Rng rng(seed);
    in.fillUniform(rng, -1.0f, 1.0f);
    return in;
}

double
maxAbs(const Tensor& t)
{
    double m = 0.0;
    for (int64_t i = 0; i < t.numel(); ++i)
        m = std::max(m, static_cast<double>(std::fabs(t[i])));
    return m;
}

/** Direct path vs convReference, with bias and fused ReLU or not. */
void
expectMatchesReference(const ConvDesc& d, int64_t batch, uint64_t seed)
{
    PackedLayer layer(d, seed);
    PatternConv engine = layer.engine(makeCpuDevice(4));
    const std::string label = d.name + " " + std::to_string(d.cin) + "x" +
                              std::to_string(d.h) + "x" + std::to_string(d.w) +
                              " batch=" + std::to_string(batch);
    ASSERT_TRUE(engine.usesDirectPath()) << label;
    Tensor in = randomInput(d, batch, seed + 1);
    Epilogue ep;
    ep.bias = &layer.bias;
    Tensor linear = makeConvOutput(d, batch);
    convReference(d, layer.weight, in, linear, ep);
    for (bool relu : {false, true}) {
        ep.relu = relu;
        Tensor want = linear;
        if (relu)
            for (int64_t i = 0; i < want.numel(); ++i)
                want[i] = std::max(0.0f, want[i]);
        // Poison the output: the direct path must write every element.
        Tensor got = makeConvOutput(d, batch);
        got.fill(std::nanf(""));
        engine.run(in, got, ep);
        int64_t unwritten = 0;
        for (int64_t i = 0; i < got.numel(); ++i)
            unwritten += std::isnan(got[i]) ? 1 : 0;
        EXPECT_EQ(unwritten, 0) << label << " relu=" << relu;
        EXPECT_LE(Tensor::maxAbsDiff(got, want), 1e-5 * (1.0 + maxAbs(want)))
            << label << " relu=" << relu;
    }
}

TEST(PatternDirect, MatchesReferenceOnEveryVggCifarGeometry)
{
    Model vgg = buildByShortName("VGG", Dataset::kCifar10);
    int checked = 0;
    for (const Layer& l : vgg.layers()) {
        if (l.kind != OpKind::kConv || l.conv.stride != 1)
            continue;
        expectMatchesReference(l.conv, 1, 100 + static_cast<uint64_t>(checked));
        ++checked;
    }
    // conv1_1 (32x32x3) down to conv5_3 (2x2x512).
    EXPECT_EQ(checked, 13);
}

TEST(PatternDirect, MatchesReferenceOnOddGeometries)
{
    const ConvDesc shapes[] = {
        {"nonsquare", 5, 6, 3, 3, 7, 13, 1, 1, 1, 1},
        {"tall", 4, 3, 3, 3, 19, 3, 1, 1, 1, 1},
        {"w_not_x8", 6, 5, 3, 3, 9, 11, 1, 1, 1, 1},
        {"pad0", 6, 7, 3, 3, 10, 12, 1, 0, 1, 1},
        {"pad2", 6, 7, 3, 3, 6, 9, 1, 2, 1, 1},
        {"one_pixel", 8, 4, 3, 3, 1, 1, 1, 1, 1, 1},
    };
    uint64_t seed = 200;
    for (const ConvDesc& d : shapes)
        expectMatchesReference(d, 1, seed++);
}

TEST(PatternDirect, MatchesReferenceAtBatchThree)
{
    expectMatchesReference({"b3", 7, 9, 3, 3, 10, 13, 1, 1, 1, 1}, 3, 300);
}

TEST(PatternDirect, IdenticalAcrossIsasAndThreadCounts)
{
    // The whole conv is bit-identical for every ISA table and for 1 vs
    // 4 pool threads: each lane's chain is fixed by the FKW order, not
    // by the lane tile or the thread split.
    for (const ConvDesc& d :
         {ConvDesc{"mid", 16, 24, 3, 3, 14, 11, 1, 1, 1, 1},
          ConvDesc{"deep", 64, 32, 3, 3, 2, 2, 1, 1, 1, 1}}) {
        PackedLayer layer(d, 400);
        Tensor in = randomInput(d, 2, 401);
        Epilogue ep;
        ep.bias = &layer.bias;
        ep.relu = true;
        DeviceSpec ref_dev = makeFixedWidthCpuDevice(1);
        ref_dev.simd_isa = SimdIsa::kScalar;
        Tensor want = makeConvOutput(d, 2);
        layer.engine(ref_dev).run(in, want, ep);
        for (SimdIsa isa : availableSimdIsas()) {
            for (int threads : {1, 4}) {
                DeviceSpec dev = makeFixedWidthCpuDevice(threads);
                dev.simd_isa = isa;
                PatternConv engine = layer.engine(dev);
                ASSERT_TRUE(engine.usesDirectPath());
                Tensor got = makeConvOutput(d, 2);
                engine.run(in, got, ep);
                EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                      static_cast<size_t>(got.numel()) *
                                          sizeof(float)),
                          0)
                    << d.name << " " << isaName(isa) << " threads=" << threads;
            }
        }
    }
}

TEST(PatternDirect, AblationLevelsAndStridesKeepTheMicroKernelPath)
{
    PackedLayer layer({"abl", 8, 8, 3, 3, 9, 9, 1, 1, 1, 1}, 500);
    LayerwiseRep lr;
    lr.conv = layer.desc;
    lr.opts.lre = false;
    EXPECT_FALSE(
        PatternConv(layer.desc, &layer.fkw, lr, makeCpuDevice(2)).usesDirectPath());
    ConvDesc strided = layer.desc;
    strided.stride = 2;
    LayerwiseRep lr2;
    lr2.conv = strided;
    EXPECT_FALSE(
        PatternConv(strided, &layer.fkw, lr2, makeCpuDevice(2)).usesDirectPath());
}

TEST(LayerwiseRepStr, RendersFig8Fields)
{
    LayerwiseRep lr;
    lr.conv = ConvDesc{"conv_op1", 8, 16, 3, 3, 12, 12, 1, 1, 1, 1};
    lr.pattern_types = {1, 2};
    std::string s = lr.str();
    EXPECT_NE(s.find("conv_op1"), std::string::npos);
    EXPECT_NE(s.find("\"type\": [1, 2]"), std::string::npos);
    EXPECT_NE(s.find("FKW"), std::string::npos);
    EXPECT_NE(s.find("cohwci_b"), std::string::npos);
    EXPECT_NE(s.find("strides"), std::string::npos);
}

}  // namespace
}  // namespace patdnn
