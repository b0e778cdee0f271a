#include "rt/framework.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "prune/projections.h"
#include "util/logging.h"
#include "util/stats.h"

namespace patdnn {

std::string
frameworkName(FrameworkKind kind)
{
    switch (kind) {
      case FrameworkKind::kTfliteLike: return "TFLite-like";
      case FrameworkKind::kTvmLike: return "TVM-like";
      case FrameworkKind::kMnnLike: return "MNN-like";
      case FrameworkKind::kPatDnnDense: return "PatDNN-dense";
      case FrameworkKind::kCsrSparse: return "CSR-sparse";
      case FrameworkKind::kPatDnn: return "PatDNN";
    }
    return "unknown";
}

const char*
precisionName(Precision p)
{
    switch (p) {
      case Precision::kF32: return "f32";
      case Precision::kInt8: return "i8";
    }
    return "unknown";
}

namespace {

bool
isSparseKind(FrameworkKind kind)
{
    return kind == FrameworkKind::kCsrSparse || kind == FrameworkKind::kPatDnn;
}

/** Patterns are 3x3 (projectPattern), so only 3x3 kernels get FKW;
 * other kernel sizes of a kPatDnn model are connectivity-pruned only. */
bool
hasPatternKernels(const ConvDesc& conv)
{
    return conv.kh == 3 && conv.kw == 3;
}

/** Conv layers the kInt8 knob applies to: ungrouped dense-GEMM layers
 * of the packed-backend kinds. Pattern/CSR storage and grouped convs
 * (naive engine) stay f32 — the precision knob targets the dense GEMM
 * backend, not the sparse formats. */
bool
denseQuantEligible(FrameworkKind kind, bool has_fkw, const ConvDesc& conv)
{
    if (has_fkw || conv.groups != 1)
        return false;
    return kind == FrameworkKind::kTvmLike || kind == FrameworkKind::kMnnLike ||
           kind == FrameworkKind::kPatDnnDense;
}

/** Joint-prune a conv weight copy per the compile options. */
PatternAssignment
pruneWeightsForCompile(Tensor& weight, const PatternSet& set,
                       const CompileOptions& opts, bool first_layer)
{
    int64_t kernels = weight.shape().dim(0) * weight.shape().dim(1);
    double rate = first_layer ? opts.first_layer_rate : opts.connectivity_rate;
    int64_t alpha = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(static_cast<double>(kernels) / rate)));
    return projectJoint(weight, set, alpha);
}

}  // namespace

// ---------------------------------------------------------------------------
// CompiledConvLayer
// ---------------------------------------------------------------------------

CompiledConvLayer::CompiledConvLayer(const ConvDesc& desc, FrameworkKind kind,
                                     DeviceSpec device, CompileOptions opts)
    : desc_(desc), kind_(kind), device_(std::move(device)), opts_(std::move(opts))
{
    desc_.check();
    Rng rng(opts_.seed + static_cast<uint64_t>(desc_.cout * 131 + desc_.cin));
    weight_ = Tensor(Shape{desc_.cout, desc_.cinPerGroup(), desc_.kh, desc_.kw});
    weight_.fillHe(rng, desc_.cinPerGroup() * desc_.kh * desc_.kw);
    input_ = Tensor(Shape{1, desc_.cin, desc_.h, desc_.w});
    input_.fillUniform(rng, -1.0f, 1.0f);

    if (isSparseKind(kind_)) {
        PatternSet set = canonicalPatternSet(opts_.pattern_count);
        // Refine with the layer's own natural-pattern statistics when
        // the kernels are 3x3, matching the training-stage pattern-set
        // design.
        if (desc_.kh == 3 && desc_.kw == 3) {
            std::vector<const Tensor*> ws = {&weight_};
            set = designPatternSet(ws, opts_.pattern_count);
        }
        PatternAssignment asg =
            pruneWeightsForCompile(weight_, set, opts_, /*first_layer=*/false);
        if (kind_ == FrameworkKind::kPatDnn && hasPatternKernels(desc_)) {
            FkrOptions fkr_opts;
            fkr_opts.reorder_filters = opts_.opts.reorder;
            fkr_opts.similarity_within_group = opts_.opts.reorder;
            fkr_opts.reorder_kernels = opts_.opts.reorder;
            FkrResult fkr = filterKernelReorder(asg, fkr_opts);
            fkw_ = std::make_unique<FkwLayer>(buildFkw(weight_, set, asg, fkr));
            LayerwiseRep lr;
            lr.device = device_.gpu_like ? "GPU" : "CPU";
            lr.conv = desc_;
            lr.opts = opts_.opts;
            lr.tuning = opts_.default_tuning;
            for (int p = 0; p < set.size(); ++p)
                lr.pattern_types.push_back(p);
            pattern_ = std::make_unique<PatternConv>(desc_, fkw_.get(), lr, device_);
        } else {
            csr_ = std::make_unique<CsrConv>(desc_, buildCsr(weight_), device_);
        }
        return;
    }

    switch (kind_) {
      case FrameworkKind::kTfliteLike:
        naive_ = std::make_unique<NaiveConv>(desc_, &weight_, device_);
        break;
      case FrameworkKind::kTvmLike:
        // TVM-like: scheduled im2col+GEMM (no hand-written Winograd).
        im2col_ = std::make_unique<Im2colConv>(desc_, &weight_, device_,
                                               opts_.default_tuning);
        break;
      case FrameworkKind::kMnnLike:
      case FrameworkKind::kPatDnnDense:
        winograd_ = std::make_unique<WinogradConv>(desc_, &weight_, device_,
                                                   opts_.default_tuning);
        if (!winograd_->usesWinograd()) {
            // Drop the non-applicable engine (it carries a packed
            // fallback of its own) instead of packing weights twice.
            winograd_.reset();
            im2col_ = std::make_unique<Im2colConv>(desc_, &weight_, device_,
                                                   opts_.default_tuning);
        }
        break;
      default:
        PATDNN_CHECK(false, "unsupported single-layer kind");
    }
}

void
CompiledConvLayer::run(const Tensor& in, Tensor& out) const
{
    if (pattern_) {
        pattern_->run(in, out);
    } else if (csr_) {
        csr_->run(in, out);
    } else if (naive_) {
        naive_->run(in, out);
    } else if (winograd_ && winograd_->usesWinograd()) {
        winograd_->run(in, out);
    } else {
        PATDNN_CHECK(im2col_ != nullptr, "no executor");
        im2col_->run(in, out);
    }
}

double
CompiledConvLayer::timeMs(int warmup, int reps) const
{
    Tensor out = makeConvOutput(desc_, 1);
    return medianTimeMs([&] { run(input_, out); }, warmup, reps);
}

int64_t
CompiledConvLayer::effectiveMacs() const
{
    int64_t nnz = weight_.countNonZero();
    return nnz * desc_.outH() * desc_.outW();
}

double
CompiledConvLayer::gflops(double time_ms) const
{
    if (time_ms <= 0.0)
        return 0.0;
    double flops = 2.0 * static_cast<double>(effectiveMacs());
    return flops / (time_ms * 1e6);
}

double
CompiledConvLayer::timeWithParams(const TuneParams& params, int reps) const
{
    PATDNN_CHECK(pattern_ != nullptr, "timeWithParams needs the pattern engine");
    LayerwiseRep lr = pattern_->lr();
    lr.tuning = params;
    PatternConv engine(desc_, fkw_.get(), lr, device_);
    Tensor out = makeConvOutput(desc_, 1);
    return medianTimeMs([&] { engine.run(input_, out); }, 1, reps);
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

void
Workspace::bindPlan(const MemoryPlan* plan)
{
    plan_ = plan;
    batch_ = 0;
    arena_ = Tensor();
    for (Tensor& v : values_)
        v = Tensor();
}

void
Workspace::beginRun(int64_t batch)
{
    if (plan_ == nullptr)
        return;
    PATDNN_CHECK_GT(batch, 0, "planned run needs a positive batch");
    PATDNN_CHECK_EQ(values_.size(), plan_->slotCount(),
                    "memory plan does not cover this graph");
    if (batch == batch_)
        return;
    batch_ = batch;
    int64_t needed = plan_->arenaElemsPerSample() * batch;
    if (arena_.shape().rank() == 0 || arena_.numel() < needed) {
        arena_ = Tensor(Shape{needed});
        // Reference cached: the registry lookup (mutex + map) must not
        // recur on the run path; registered metrics never move.
        static Gauge& arena_hwm =
            MetricsRegistry::global().gauge("rt.arena_hwm_bytes");
        arena_hwm.setMax(static_cast<double>(needed) * sizeof(float));
    }
    // Every offset scales with the batch, so stale views must go.
    for (Tensor& v : values_)
        v = Tensor();
}

void
Workspace::poisonFreedAfter(size_t id)
{
    if (!poisonFreed())
        return;
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    for (size_t j = 0; j < plan_->slotCount(); ++j) {
        const PlanSlot& s = plan_->slot(j);
        if (!s.planned || s.last_use != static_cast<int>(id))
            continue;
        float* p = arena_.data() + s.offset_elems * batch_;
        std::fill(p, p + s.size_elems * batch_, kNan);
    }
}

size_t
Workspace::activationBytes() const
{
    if (plan_ != nullptr)
        return arena_.shape().rank() == 0
                   ? 0
                   : static_cast<size_t>(arena_.numel()) * sizeof(float);
    size_t total = 0;
    for (const Tensor& v : values_)
        if (v.shape().rank() != 0)
            total += static_cast<size_t>(v.numel()) * sizeof(float);
    return total;
}

Tensor&
Workspace::raw(size_t id, const Shape& shape)
{
    if (plan_ != nullptr && plan_->slot(id).planned) {
        const PlanSlot& s = plan_->slot(id);
        PATDNN_CHECK_GT(batch_, 0, "beginRun() must precede slot access");
        PATDNN_CHECK_EQ(shape.numel(), s.size_elems * batch_,
                        "planned slot extent mismatch for node " << id);
        Tensor& t = values_[id];
        if (!t.isView() || t.shape() != shape)
            t = Tensor::view(arena_.data() + s.offset_elems * batch_, shape);
        return t;
    }
    Tensor& t = values_[id];
    if (t.shape() != shape) {
        // A never-used slot is rank-0 with NO storage but numel() == 1,
        // so it must be allocated, not reshaped (a reshape would hand
        // out a 1-element view over an empty buffer).
        if (t.shape().rank() != 0 && t.numel() == shape.numel())
            t.reshape(shape);
        else
            t = Tensor(shape);
    }
    return t;
}

Tensor&
Workspace::fresh(size_t id, const Shape& shape)
{
    Tensor& t = raw(id, shape);
    t.fill(0.0f);  // Conv executors accumulate into their output.
    return t;
}

// ---------------------------------------------------------------------------
// CompiledModel
// ---------------------------------------------------------------------------

/** Per-node executor: owns pruned weights and the chosen engine. */
struct CompiledModel::Executor
{
    OpKind kind = OpKind::kConv;
    ConvDesc conv;
    Tensor weight;  ///< Conv/fc weights (pruned copy for sparse kinds).
    Tensor bias;
    Epilogue ep;
    int64_t pool_k = 2, pool_stride = 2;
    int64_t in_features = 0, out_features = 0;
    std::vector<int> inputs;
    bool fused_relu = false;
    std::unique_ptr<FkwLayer> fkw;
    TuneParams tuning;   ///< Pattern-engine tuned parameters.
    OptSwitches opts;    ///< Pattern-engine switches.
    bool quantized = false;            ///< Run the int8 dense path.
    float act_scale = 0.0f;            ///< Calibrated input scale.
    std::vector<float> weight_scales;  ///< Restore-path override scales.
    std::unique_ptr<PatternConv> pattern;
    std::unique_ptr<NaiveConv> naive;
    std::unique_ptr<Im2colConv> im2col;
    std::unique_ptr<WinogradConv> winograd;
    std::unique_ptr<CsrConv> csr;

    // Attribution strings for RunProfile rows and trace spans,
    // precomputed at compile/restore time (labelExecutor) so the run
    // loop never formats on the hot path.
    std::string label;             ///< "conv1_1" or "maxpool#4".
    const char* kind_name = "?";   ///< Engine actually executing.
    const char* isa_name = "-";    ///< Kernel-table ISA ("-": no table).
    const char* prec_name = "f32"; ///< Numeric path ("i8" when quantized).
};

CompiledModel::~CompiledModel() = default;

void
CompiledModel::attachConvEngines(Executor& ex) const
{
    ex.ep.bias = ex.bias.numel() > 0 ? &ex.bias : nullptr;
    ex.ep.relu = ex.fused_relu;
    if (ex.fkw) {
        LayerwiseRep lr;
        lr.device = device_.gpu_like ? "GPU" : "CPU";
        lr.conv = ex.conv;
        lr.opts = ex.opts;
        lr.tuning = ex.tuning;
        for (size_t p = 0; p < ex.fkw->patterns.size(); ++p)
            lr.pattern_types.push_back(static_cast<int>(p));
        ex.pattern =
            std::make_unique<PatternConv>(ex.conv, ex.fkw.get(), lr, device_);
        return;
    }
    // Sparse kinds run every other ungrouped conv on its pruned weights
    // through CSR (for kPatDnn: the non-3x3 kernels, which patterns
    // leave to connectivity pruning alone).
    if (isSparseKind(kind_) && ex.conv.groups == 1) {
        ex.csr = std::make_unique<CsrConv>(ex.conv, buildCsr(ex.weight), device_);
        return;
    }
    if (ex.quantized && denseQuantEligible(kind_, false, ex.conv)) {
        // Int8 dense path: always the quantized im2col engine —
        // Winograd's transform-domain arithmetic does not survive int8,
        // so Winograd-eligible layers run quantized im2col too.
        ex.im2col = std::make_unique<Im2colConv>(
            ex.conv, &ex.weight, device_, ex.tuning, ex.act_scale,
            ex.weight_scales);
        return;
    }
    switch (kind_) {
      case FrameworkKind::kTfliteLike:
        ex.naive = std::make_unique<NaiveConv>(ex.conv, &ex.weight, device_);
        break;
      case FrameworkKind::kTvmLike:
        if (ex.conv.groups == 1)
            ex.im2col = std::make_unique<Im2colConv>(ex.conv, &ex.weight,
                                                     device_, ex.tuning);
        else
            ex.naive = std::make_unique<NaiveConv>(ex.conv, &ex.weight, device_);
        break;
      default:
        if (ex.conv.groups == 1) {
            ex.winograd = std::make_unique<WinogradConv>(ex.conv, &ex.weight,
                                                         device_, ex.tuning);
            if (!ex.winograd->usesWinograd()) {
                // Drop the non-applicable engine (it carries a packed
                // fallback of its own) instead of packing weights twice.
                ex.winograd.reset();
                ex.im2col = std::make_unique<Im2colConv>(ex.conv, &ex.weight,
                                                         device_, ex.tuning);
            }
        } else {
            ex.naive = std::make_unique<NaiveConv>(ex.conv, &ex.weight, device_);
        }
        break;
    }
}

void
CompiledModel::labelExecutor(Executor& ex, size_t id) const
{
    if (ex.kind == OpKind::kConv && !ex.conv.name.empty())
        ex.label = ex.conv.name;
    else
        ex.label = opKindName(ex.kind) + "#" + std::to_string(id);
    switch (ex.kind) {
      case OpKind::kConv:
        if (ex.pattern) {
            ex.kind_name = "pattern";
        } else if (ex.csr) {
            ex.kind_name = "csr";
        } else if (ex.naive) {
            ex.kind_name = "naive";
        } else if (ex.winograd && ex.winograd->usesWinograd()) {
            ex.kind_name = "winograd";
        } else if (ex.im2col) {
            ex.kind_name = "im2col";
        }
        // The sparse engines and the packed-GEMM dense engines
        // (im2col, winograd stage-2) dispatch through the SIMD kernel
        // tables; only the tflite-like naive baseline stays
        // engine-internal scalar code.
        if (ex.pattern || ex.csr || ex.im2col || ex.winograd)
            ex.isa_name = isaName(resolveSimdOps(device_.simd_isa).isa);
        if (ex.im2col && ex.im2col->quantized())
            ex.prec_name = precisionName(Precision::kInt8);
        break;
      case OpKind::kBatchNorm:      ex.kind_name = "bn"; break;
      case OpKind::kReLU:           ex.kind_name = "relu"; break;
      case OpKind::kMaxPool:
      case OpKind::kAvgPool:        ex.kind_name = "pool"; break;
      case OpKind::kAdd:            ex.kind_name = "add"; break;
      case OpKind::kFlatten:        ex.kind_name = "flatten"; break;
      case OpKind::kFullyConnected: ex.kind_name = "fc"; break;
    }
}

CompiledModel::CompiledModel(const Model& model, FrameworkKind kind, DeviceSpec device,
                             CompileOptions opts)
    : kind_(kind), device_(std::move(device)),
      tuned_isa_(resolveSimdOps(device_.simd_isa).isa), compile_opts_(opts)
{
    Graph graph = buildGraph(model);
    // Graph-level optimization (Table 1): all frameworks fold BN and
    // fuse ReLU; TFLite-like runs a reduced pass set ("less advanced").
    if (opts.run_graph_passes) {
        foldBatchNorm(graph);
        if (kind_ != FrameworkKind::kTfliteLike)
            fuseConvRelu(graph);
        foldConstants(graph);
        eliminateDeadNodes(graph);
    }
    output_node_ = graph.outputNode();

    // Shared pattern set mined from all 3x3 conv weights (training-stage
    // output in the real pipeline).
    PatternSet set;
    if (isSparseKind(kind_)) {
        std::vector<const Tensor*> ws;
        for (const auto& n : graph.nodes())
            if (!n.dead && n.kind == OpKind::kConv)
                ws.push_back(&n.weight);
        set = canonicalPatternSet(opts.pattern_count);
        auto freqs = minePatternFrequencies(ws);
        if (!freqs.empty())
            set = selectTopK(freqs, opts.pattern_count);
    }

    executors_.resize(graph.nodes().size());
    bool first_conv = true;
    for (const auto& n : graph.nodes()) {
        if (n.dead)
            continue;
        auto ex = std::make_unique<Executor>();
        ex->kind = n.kind;
        ex->conv = n.conv;
        ex->inputs = n.inputs;
        ex->fused_relu = n.fused_relu;
        ex->pool_k = n.pool_k;
        ex->pool_stride = n.pool_stride;
        ex->in_features = n.in_features;
        ex->out_features = n.out_features;
        ex->bias = n.bias;
        if (n.kind == OpKind::kConv) {
            ex->weight = n.weight;
            ex->tuning = opts.default_tuning;
            if (opts.tune_lookup) {
                TuneParams cached;
                if (opts.tune_lookup(n.conv, &cached))
                    ex->tuning = cached;
            }
            ex->opts = opts.opts;
            bool can_sparse = isSparseKind(kind_) && n.conv.groups == 1;
            if (can_sparse) {
                PatternAssignment asg = pruneWeightsForCompile(
                    ex->weight, set, opts, first_conv);
                if (kind_ == FrameworkKind::kPatDnn &&
                    hasPatternKernels(n.conv)) {
                    FkrOptions fkr_opts;
                    fkr_opts.reorder_filters = opts.opts.reorder;
                    fkr_opts.similarity_within_group = opts.opts.reorder;
                    fkr_opts.reorder_kernels = opts.opts.reorder;
                    FkrResult fkr = filterKernelReorder(asg, fkr_opts);
                    ex->fkw = std::make_unique<FkwLayer>(
                        buildFkw(ex->weight, set, asg, fkr));
                }
            }
            attachConvEngines(*ex);
            first_conv = false;
        } else if (n.kind == OpKind::kFullyConnected) {
            ex->weight = n.weight;
        } else if (n.kind == OpKind::kBatchNorm) {
            ex->weight = n.bn_scale;
            ex->bias = n.bn_shift;
        }
        labelExecutor(*ex, static_cast<size_t>(n.id));
        executors_[static_cast<size_t>(n.id)] = std::move(ex);
    }

    if (opts.precision == Precision::kInt8)
        quantizeDenseConvLayers();

    if (opts.enable_memory_plan) {
        std::vector<PlanNode> plan_nodes = planNodes();
        if (!plan_nodes.empty())
            plan_ = planActivations(plan_nodes, output_node_);
    }
    if (!plan_.empty()) {
        // Most-recent-compile planner quality, for dashboards/tests.
        MetricsRegistry& reg = MetricsRegistry::global();
        reg.gauge("memplan.arena_kb_per_sample")
            .set(static_cast<double>(plan_.arenaBytes(1)) / 1024.0);
        reg.gauge("memplan.reuse_x")
            .set(static_cast<double>(plan_.sumElemsPerSample()) /
                 static_cast<double>(plan_.arenaElemsPerSample()));
    }
}

void
CompiledModel::quantizeDenseConvLayers()
{
    const Executor* first_conv = nullptr;
    bool any_eligible = false;
    for (const auto& exp : executors_) {
        if (!exp || exp->kind != OpKind::kConv)
            continue;
        if (first_conv == nullptr)
            first_conv = exp.get();
        if (denseQuantEligible(kind_, exp->fkw != nullptr, exp->conv))
            any_eligible = true;
    }
    if (first_conv == nullptr || !any_eligible)
        return;

    // Synthetic calibration batch shaped for the input conv, run
    // through the f32 engines with a per-layer workspace — per-layer
    // slots keep every node's value after the run, so each conv's
    // *input* distribution can be observed without new runtime hooks.
    const CalibrationOptions& cal = compile_opts_.calibration;
    int64_t samples = std::max(1, cal.samples);
    Tensor calib(Shape{samples, first_conv->conv.cin, first_conv->conv.h,
                       first_conv->conv.w});
    Rng rng(cal.seed);
    calib.fillUniform(rng, -1.0f, 1.0f);
    Workspace ws;
    runLayers(calib, ws, nullptr, nullptr);

    for (size_t id = 0; id < executors_.size(); ++id) {
        auto& exp = executors_[id];
        if (!exp || exp->kind != OpKind::kConv)
            continue;
        Executor& ex = *exp;
        if (!denseQuantEligible(kind_, ex.fkw != nullptr, ex.conv))
            continue;
        ActivationCalibrator calibrator(cal.method, cal.percentile);
        int src = ex.inputs.empty() ? -1 : ex.inputs[0];
        calibrator.observe(src < 0 ? calib
                                   : ws.value(static_cast<size_t>(src)));
        ex.quantized = true;
        ex.act_scale = calibrator.scale();
        ex.weight_scales.clear();  // Derived from the weights on attach.
        ex.winograd.reset();
        ex.im2col.reset();
        attachConvEngines(ex);
        labelExecutor(ex, id);
    }
}

CompiledModel::CompiledModel(FrameworkKind kind, DeviceSpec device,
                             std::vector<CompiledLayerState> layers, int output_node,
                             SimdIsa tuned_isa, CompileOptions compile_opts)
    : kind_(kind), device_(std::move(device)), tuned_isa_(tuned_isa),
      compile_opts_(std::move(compile_opts)), output_node_(output_node)
{
    PATDNN_CHECK(output_node_ >= 0 &&
                     static_cast<size_t>(output_node_) < layers.size(),
                 "output node out of range");
    executors_.resize(layers.size());
    for (size_t id = 0; id < layers.size(); ++id) {
        CompiledLayerState& st = layers[id];
        if (!st.live)
            continue;
        auto ex = std::make_unique<Executor>();
        ex->kind = st.kind;
        ex->conv = st.conv;
        ex->inputs = std::move(st.inputs);
        ex->fused_relu = st.fused_relu;
        ex->pool_k = st.pool_k;
        ex->pool_stride = st.pool_stride;
        ex->in_features = st.in_features;
        ex->out_features = st.out_features;
        ex->weight = std::move(st.weight);
        ex->bias = std::move(st.bias);
        ex->fkw = std::move(st.fkw);
        ex->tuning = st.tuning;
        ex->opts = st.opts;
        ex->quantized = st.quantized;
        ex->act_scale = st.act_scale;
        ex->weight_scales = std::move(st.weight_scales);
        if (ex->kind == OpKind::kConv) {
            // Pattern layers ship without the dense view; rebuild it for
            // the nonzero/compression accounting. (A rank-0 Tensor is
            // the "absent" marker — note numel() is 1 for rank 0.)
            if (ex->fkw && ex->weight.shape().rank() == 0)
                ex->weight = fkwToDense(*ex->fkw);
            attachConvEngines(*ex);
        }
        labelExecutor(*ex, id);
        executors_[id] = std::move(ex);
    }
}

std::vector<PlanNode>
CompiledModel::planNodes() const
{
    std::vector<PlanNode> nodes(executors_.size());
    // Per-sample output shapes (leading batch dim fixed at 1), inferred
    // in execution order. Only a conv knows the model-input geometry
    // (its ConvDesc carries cin/h/w); any other op reading the model
    // input directly makes shapes — and hence planning — uninferable.
    std::vector<Shape> shapes(executors_.size());
    for (size_t id = 0; id < executors_.size(); ++id) {
        const auto& exp = executors_[id];
        if (!exp)
            continue;
        const Executor& ex = *exp;
        auto input_shape = [&](size_t i) -> const Shape* {
            int src = ex.inputs[i];
            return src < 0 ? nullptr : &shapes[static_cast<size_t>(src)];
        };
        Shape out;
        switch (ex.kind) {
          case OpKind::kConv:
            out = Shape{1, ex.conv.cout, ex.conv.outH(), ex.conv.outW()};
            break;
          case OpKind::kBatchNorm:
          case OpKind::kReLU:
          case OpKind::kAdd: {
            const Shape* s = input_shape(0);
            if (s == nullptr)
                return {};
            out = *s;
            break;
          }
          case OpKind::kMaxPool:
          case OpKind::kAvgPool: {
            const Shape* s = input_shape(0);
            if (s == nullptr)
                return {};
            int64_t oh = (s->dim(2) - ex.pool_k) / ex.pool_stride + 1;
            int64_t ow = (s->dim(3) - ex.pool_k) / ex.pool_stride + 1;
            out = Shape{1, s->dim(1), oh, ow};
            break;
          }
          case OpKind::kFlatten: {
            const Shape* s = input_shape(0);
            if (s == nullptr)
                return {};
            out = Shape{1, s->numel()};
            break;
          }
          case OpKind::kFullyConnected:
            out = Shape{1, ex.out_features};
            break;
        }
        shapes[id] = out;
        nodes[id].live = true;
        nodes[id].inputs = ex.inputs;
        nodes[id].elems_per_sample = out.numel();
    }
    return nodes;
}

Status
CompiledModel::adoptMemoryPlan(MemoryPlan plan)
{
    std::vector<PlanNode> nodes = planNodes();
    if (nodes.empty())
        return Status(ErrorCode::kInvalidArgument,
                      "memory plan: model shapes cannot be inferred");
    PATDNN_RETURN_IF_ERROR(plan.validateAgainst(nodes, output_node_));
    plan_ = std::move(plan);
    return Status::OK();
}

std::vector<CompiledLayerState>
CompiledModel::exportState() const
{
    std::vector<CompiledLayerState> out(executors_.size());
    for (size_t id = 0; id < executors_.size(); ++id) {
        const auto& exp = executors_[id];
        if (!exp)
            continue;
        const Executor& ex = *exp;
        CompiledLayerState& st = out[id];
        st.live = true;
        st.kind = ex.kind;
        st.conv = ex.conv;
        st.inputs = ex.inputs;
        st.fused_relu = ex.fused_relu;
        st.pool_k = ex.pool_k;
        st.pool_stride = ex.pool_stride;
        st.in_features = ex.in_features;
        st.out_features = ex.out_features;
        st.bias = ex.bias;
        st.tuning = ex.tuning;
        st.opts = ex.opts;
        if (ex.im2col && ex.im2col->quantized()) {
            // Persist the calibrated scales, not the quantized bytes:
            // the f32 weights below re-quantize deterministically on
            // restore, so the artifact stays loadable as f32 by older
            // readers.
            st.quantized = true;
            st.act_scale = ex.im2col->actScale();
            st.weight_scales = ex.im2col->weightScales();
        }
        if (ex.fkw)
            st.fkw = std::make_unique<FkwLayer>(*ex.fkw);  // FKW replaces dense.
        else
            st.weight = ex.weight;
    }
    return out;
}

Tensor
CompiledModel::runLayers(const Tensor& input, Workspace& ws, double* conv_ms,
                         RunProfile* profile) const
{
    static Counter& model_runs =
        MetricsRegistry::global().counter("rt.model_runs");
    model_runs.inc();
    const int64_t batch = input.shape().dim(0);
    TraceSpan run_span("model.run", "rt", "batch", batch);
    // Per-node timing is paid only when someone is looking: a profile
    // was requested or the tracer is live.
    const bool timing = profile != nullptr || Tracer::enabled();
    const int64_t run_start_ns = timing ? Tracer::nowNs() : 0;
    if (profile != nullptr)
        profile->prepare(executors_.size());
    ws.resize(executors_.size());
    ws.beginRun(batch);
    auto input_of = [&](const Executor& ex, int i) -> const Tensor& {
        int id = ex.inputs[static_cast<size_t>(i)];
        return id < 0 ? input : ws.value(static_cast<size_t>(id));
    };
    double conv_total = 0.0;
    for (size_t id = 0; id < executors_.size(); ++id) {
        const auto& exp = executors_[id];
        if (!exp)
            continue;
        const Executor& ex = *exp;
        const Tensor& x = input_of(ex, 0);
        const int64_t node_start_ns = timing ? Tracer::nowNs() : 0;
        switch (ex.kind) {
          case OpKind::kConv: {
            Tensor& y = ws.fresh(
                id, Shape{x.shape().dim(0), ex.conv.cout, ex.conv.outH(),
                          ex.conv.outW()});
            Timer t;
            if (ex.pattern)
                ex.pattern->run(x, y, ex.ep);
            else if (ex.csr)
                ex.csr->run(x, y, ex.ep);
            else if (ex.naive)
                ex.naive->run(x, y, ex.ep);
            else if (ex.winograd && ex.winograd->usesWinograd())
                ex.winograd->run(x, y, ex.ep);
            else
                ex.im2col->run(x, y, ex.ep);
            conv_total += t.elapsedMs();
            break;
          }
          case OpKind::kBatchNorm: {
            Tensor& y = ws.raw(id, x.shape());
            int64_t c = ex.weight.numel();
            int64_t n = x.shape().dim(0);
            int64_t hw = x.numel() / (n * c);
            for (int64_t b = 0; b < n; ++b)
                for (int64_t ch = 0; ch < c; ++ch) {
                    float s = ex.weight[ch];
                    float sh = ex.bias[ch];
                    const float* p = x.data() + (b * c + ch) * hw;
                    float* q = y.data() + (b * c + ch) * hw;
                    for (int64_t i = 0; i < hw; ++i)
                        q[i] = p[i] * s + sh;
                }
            break;
          }
          case OpKind::kReLU: {
            Tensor& y = ws.raw(id, x.shape());
            for (int64_t i = 0; i < y.numel(); ++i)
                y[i] = std::max(0.0f, x[i]);
            break;
          }
          case OpKind::kMaxPool:
          case OpKind::kAvgPool: {
            int64_t n = x.shape().dim(0), c = x.shape().dim(1);
            int64_t h = x.shape().dim(2), w = x.shape().dim(3);
            int64_t k = ex.pool_k, s = ex.pool_stride;
            int64_t oh = (h - k) / s + 1, ow = (w - k) / s + 1;
            Tensor& y = ws.raw(id, Shape{n, c, oh, ow});
            bool is_max = ex.kind == OpKind::kMaxPool;
            for (int64_t bc = 0; bc < n * c; ++bc) {
                const float* ip = x.data() + bc * h * w;
                float* op = y.data() + bc * oh * ow;
                for (int64_t yy = 0; yy < oh; ++yy)
                    for (int64_t xx = 0; xx < ow; ++xx) {
                        float acc = is_max ? -1e30f : 0.0f;
                        for (int64_t r = 0; r < k; ++r)
                            for (int64_t cc = 0; cc < k; ++cc) {
                                float v = ip[(yy * s + r) * w + xx * s + cc];
                                acc = is_max ? std::max(acc, v) : acc + v;
                            }
                        op[yy * ow + xx] =
                            is_max ? acc : acc / static_cast<float>(k * k);
                    }
            }
            break;
          }
          case OpKind::kAdd: {
            const Tensor& r = input_of(ex, 1);
            PATDNN_CHECK(r.shape() == x.shape(),
                         "residual add operand shapes must match");
            Tensor& y = ws.raw(id, x.shape());
            for (int64_t i = 0; i < y.numel(); ++i)
                y[i] = x[i] + r[i];
            if (ex.fused_relu)
                for (int64_t i = 0; i < y.numel(); ++i)
                    y[i] = std::max(0.0f, y[i]);
            break;
          }
          case OpKind::kFlatten: {
            Tensor& y = ws.raw(
                id, Shape{x.shape().dim(0), x.numel() / x.shape().dim(0)});
            std::copy(x.data(), x.data() + x.numel(), y.data());
            break;
          }
          case OpKind::kFullyConnected: {
            // Row-major NCHW is already flat per batch row; read the
            // input in place instead of materializing a reshaped copy.
            int64_t n = x.shape().dim(0);
            Tensor& y = ws.raw(id, Shape{n, ex.out_features});
            device_.pool().parallelFor(ex.out_features, [&](int64_t o) {
                const float* wr = ex.weight.data() + o * ex.in_features;
                for (int64_t b = 0; b < n; ++b) {
                    const float* xr = x.data() + b * ex.in_features;
                    float acc = ex.bias.numel() > 0 ? ex.bias[o] : 0.0f;
                    for (int64_t i = 0; i < ex.in_features; ++i)
                        acc += wr[i] * xr[i];
                    if (ex.fused_relu && acc < 0.0f)
                        acc = 0.0f;
                    y[b * ex.out_features + o] = acc;
                }
            });
            break;
          }
        }
        if (timing) {
            const int64_t dur_ns = Tracer::nowNs() - node_start_ns;
            if (Tracer::enabled())
                Tracer::emitSpan(ex.label.c_str(), "layer", node_start_ns,
                                 dur_ns);
            if (profile != nullptr) {
                RunProfileEntry& e = profile->entries[id];
                if (e.name.empty()) {
                    e.name = ex.label;
                    e.kind = ex.kind_name;
                    e.isa = ex.isa_name;
                    e.prec = ex.prec_name;
                }
                int64_t elems = x.numel() + ws.value(id).numel();
                if (ex.weight.shape().rank() != 0)
                    elems += ex.weight.numel();
                if (ex.kind == OpKind::kAdd)
                    elems += input_of(ex, 1).numel();
                e.bytes += elems * static_cast<int64_t>(sizeof(float));
                e.calls += 1;
                e.total_ns += dur_ns;
                e.max_ns = std::max(e.max_ns, dur_ns);
            }
        }
        if (ws.poisonFreed())
            ws.poisonFreedAfter(id);
    }
    if (profile != nullptr) {
        profile->runs += 1;
        profile->wall_ns += Tracer::nowNs() - run_start_ns;
    }
    if (conv_ms != nullptr)
        *conv_ms = conv_total;
    // Deep-copy out of the workspace: the slot is reused by the next run.
    return ws.value(static_cast<size_t>(output_node_));
}

Tensor
CompiledModel::run(const Tensor& input) const
{
    Workspace ws;
    return runLayers(input, ws, nullptr, nullptr);
}

Tensor
CompiledModel::run(const Tensor& input, Workspace& ws) const
{
    return runLayers(input, ws, nullptr, nullptr);
}

Tensor
CompiledModel::run(const Tensor& input, Workspace& ws, RunProfile* profile) const
{
    return runLayers(input, ws, nullptr, profile);
}

double
CompiledModel::timeMs(const Tensor& input, int warmup, int reps) const
{
    Workspace ws;
    return medianTimeMs([&] { runLayers(input, ws, nullptr, nullptr); }, warmup,
                        reps);
}

double
CompiledModel::convOnlyTimeMs(const Tensor& input, int warmup, int reps) const
{
    Workspace ws;
    for (int i = 0; i < warmup; ++i)
        runLayers(input, ws, nullptr, nullptr);
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        double conv_ms = 0.0;
        runLayers(input, ws, &conv_ms, nullptr);
        times.push_back(conv_ms);
    }
    return summarize(times).median;
}

int64_t
CompiledModel::convNonZeros() const
{
    int64_t nnz = 0;
    for (const auto& ex : executors_)
        if (ex && ex->kind == OpKind::kConv)
            nnz += ex->weight.countNonZero();
    return nnz;
}

int64_t
CompiledModel::convDense() const
{
    int64_t n = 0;
    for (const auto& ex : executors_)
        if (ex && ex->kind == OpKind::kConv)
            n += ex->weight.numel();
    return n;
}

}  // namespace patdnn
