/** @file End-to-end framework facade tests. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "rt/framework.h"
#include "serve/artifact.h"

namespace patdnn {
namespace {

Model
tinyModel()
{
    // A small VGG-flavored model that runs in milliseconds.
    Model m("tiny-vgg", "test");
    auto add_conv = [&](const std::string& name, int64_t cin, int64_t cout,
                        int64_t res) {
        Layer conv;
        conv.kind = OpKind::kConv;
        conv.name = name;
        conv.conv = ConvDesc{name, cin, cout, 3, 3, res, res, 1, 1, 1, 1};
        m.addLayer(std::move(conv));
        Layer relu;
        relu.kind = OpKind::kReLU;
        relu.name = name + "_relu";
        m.addLayer(std::move(relu));
    };
    add_conv("c1", 3, 16, 16);
    add_conv("c2", 16, 16, 16);
    Layer pool;
    pool.kind = OpKind::kMaxPool;
    pool.name = "p1";
    m.addLayer(std::move(pool));
    add_conv("c3", 16, 32, 8);
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = "fc";
    fc.in_features = 32 * 8 * 8;
    fc.out_features = 10;
    m.addLayer(std::move(fc));
    m.randomizeWeights(77);
    return m;
}

TEST(Framework, DenseEnginesAgree)
{
    Model m = tinyModel();
    DeviceSpec dev = makeCpuDevice(4);
    Tensor in(Shape{1, 3, 16, 16});
    Rng rng(1);
    in.fillUniform(rng, 0.0f, 1.0f);
    CompiledModel tflite(m, FrameworkKind::kTfliteLike, dev);
    CompiledModel tvm(m, FrameworkKind::kTvmLike, dev);
    CompiledModel mnn(m, FrameworkKind::kMnnLike, dev);
    CompiledModel ours(m, FrameworkKind::kPatDnnDense, dev);
    Tensor y0 = tflite.run(in);
    Tensor y1 = tvm.run(in);
    Tensor y2 = mnn.run(in);
    Tensor y3 = ours.run(in);
    EXPECT_LT(Tensor::maxAbsDiff(y0, y1), 1e-2);
    EXPECT_LT(Tensor::maxAbsDiff(y0, y2), 1e-2);
    EXPECT_LT(Tensor::maxAbsDiff(y0, y3), 1e-2);
}

TEST(Framework, SparseEnginesAgreeWithEachOther)
{
    // CSR-sparse and PatDNN prune with identical options, so their
    // outputs must match exactly (same surviving weights).
    Model m = tinyModel();
    DeviceSpec dev = makeCpuDevice(4);
    Tensor in(Shape{1, 3, 16, 16});
    Rng rng(2);
    in.fillUniform(rng, 0.0f, 1.0f);
    CompileOptions opts;
    CompiledModel csr(m, FrameworkKind::kCsrSparse, dev, opts);
    CompiledModel pat(m, FrameworkKind::kPatDnn, dev, opts);
    Tensor a = csr.run(in);
    Tensor b = pat.run(in);
    EXPECT_LT(Tensor::maxAbsDiff(a, b), 1e-3);
}

TEST(Framework, SparseKindsActuallyPrune)
{
    Model m = tinyModel();
    DeviceSpec dev = makeCpuDevice(2);
    CompiledModel dense(m, FrameworkKind::kPatDnnDense, dev);
    CompiledModel sparse(m, FrameworkKind::kPatDnn, dev);
    EXPECT_EQ(dense.convNonZeros(), dense.convDense());
    EXPECT_LT(sparse.convNonZeros(), dense.convDense() / 3);
}

TEST(Framework, GpuDeviceRuns)
{
    Model m = tinyModel();
    DeviceSpec dev = makeGpuDevice();
    CompiledModel pat(m, FrameworkKind::kPatDnn, dev);
    Tensor in(Shape{1, 3, 16, 16});
    Rng rng(3);
    in.fillUniform(rng, 0.0f, 1.0f);
    Tensor y = pat.run(in);
    EXPECT_EQ(y.shape(), Shape({1, 10}));
}

TEST(Framework, ResidualModelRunsEndToEnd)
{
    Model m = buildResNet50(Dataset::kCifar10);
    DeviceSpec dev = makeCpuDevice(4);
    CompiledModel dense(m, FrameworkKind::kPatDnnDense, dev);
    Tensor in(Shape{1, 3, 32, 32});
    Rng rng(4);
    in.fillUniform(rng, 0.0f, 1.0f);
    Tensor y = dense.run(in);
    EXPECT_EQ(y.shape(), Shape({1, 10}));
}

TEST(Framework, DepthwiseModelRunsEndToEnd)
{
    Model m = buildMobileNetV2(Dataset::kCifar10);
    DeviceSpec dev = makeCpuDevice(4);
    CompiledModel sparse(m, FrameworkKind::kPatDnn, dev);
    Tensor in(Shape{1, 3, 32, 32});
    Rng rng(5);
    in.fillUniform(rng, 0.0f, 1.0f);
    Tensor y = sparse.run(in);
    EXPECT_EQ(y.shape(), Shape({1, 10}));
}

// kPatDnn runs 3x3 convs on the pattern engine and every other
// ungrouped conv (the 1x1s here) through CSR on the same pruned
// weights, so whole-model outputs must match CSR-sparse, whose
// surviving weights are identical — also after an artifact round-trip.
class SparseZooAgreement : public ::testing::TestWithParam<const char*>
{
};

TEST_P(SparseZooAgreement, PatDnnMatchesCsrSparse)
{
    Model m = buildByShortName(GetParam(), Dataset::kCifar10);
    DeviceSpec dev = makeCpuDevice(4);
    CompileOptions opts;
    CompiledModel csr(m, FrameworkKind::kCsrSparse, dev, opts);
    CompiledModel pat(m, FrameworkKind::kPatDnn, dev, opts);
    Tensor in(Shape{1, 3, 32, 32});
    Rng rng(6);
    in.fillUniform(rng, 0.0f, 1.0f);
    Tensor want = csr.run(in);
    double ref = 0.0;
    for (int64_t i = 0; i < want.numel(); ++i)
        ref = std::max(ref, static_cast<double>(std::fabs(want[i])));
    ASSERT_GT(ref, 0.0);
    EXPECT_LE(Tensor::maxAbsDiff(pat.run(in), want), 1e-3 * ref);

    auto loaded = deserializeModel(serializeModel(pat), dev);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_LE(Tensor::maxAbsDiff(loaded.value()->run(in), want), 1e-3 * ref);
}

INSTANTIATE_TEST_SUITE_P(Cifar, SparseZooAgreement,
                         ::testing::Values("MBNT", "RNT"));

TEST(Framework, TimingReturnsPositiveMs)
{
    Model m = tinyModel();
    DeviceSpec dev = makeCpuDevice(2);
    CompiledModel eng(m, FrameworkKind::kPatDnn, dev);
    Tensor in(Shape{1, 3, 16, 16});
    Rng rng(6);
    in.fillUniform(rng, 0.0f, 1.0f);
    EXPECT_GT(eng.timeMs(in, 1, 2), 0.0);
    EXPECT_GT(eng.convOnlyTimeMs(in, 1, 2), 0.0);
}

TEST(FrameworkNames, AllDistinct)
{
    std::vector<FrameworkKind> kinds = {
        FrameworkKind::kTfliteLike, FrameworkKind::kTvmLike,
        FrameworkKind::kMnnLike,    FrameworkKind::kPatDnnDense,
        FrameworkKind::kCsrSparse,  FrameworkKind::kPatDnn};
    for (size_t i = 0; i < kinds.size(); ++i)
        for (size_t j = i + 1; j < kinds.size(); ++j)
            EXPECT_NE(frameworkName(kinds[i]), frameworkName(kinds[j]));
}

TEST(CompiledConvLayerTest, SingleLayerKindsRun)
{
    ConvDesc d{"L", 16, 32, 3, 3, 14, 14, 1, 1, 1, 1};
    DeviceSpec dev = makeCpuDevice(2);
    for (auto kind : {FrameworkKind::kTfliteLike, FrameworkKind::kTvmLike,
                      FrameworkKind::kMnnLike, FrameworkKind::kPatDnnDense,
                      FrameworkKind::kCsrSparse, FrameworkKind::kPatDnn}) {
        CompiledConvLayer layer(d, kind, dev);
        double ms = layer.timeMs(0, 1);
        EXPECT_GT(ms, 0.0) << frameworkName(kind);
        EXPECT_GT(layer.gflops(ms), 0.0);
        EXPECT_GT(layer.effectiveMacs(), 0);
    }
}

TEST(CompiledConvLayerTest, SparseHasFewerEffectiveMacs)
{
    ConvDesc d{"L", 16, 32, 3, 3, 14, 14, 1, 1, 1, 1};
    DeviceSpec dev = makeCpuDevice(2);
    CompiledConvLayer dense(d, FrameworkKind::kPatDnnDense, dev);
    CompiledConvLayer sparse(d, FrameworkKind::kPatDnn, dev);
    EXPECT_LT(sparse.effectiveMacs(), dense.effectiveMacs() / 3);
}

}  // namespace
}  // namespace patdnn
