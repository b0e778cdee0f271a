/**
 * @file
 * End-to-end model execution facades.
 *
 * The paper compares PatDNN against TFLite, TVM and MNN. Those binaries
 * are closed/mobile-only, so this repo re-implements baseline engines
 * with each framework's documented optimization inventory (Table 1):
 *
 *  - kTfliteLike: dense direct conv, threaded, no auto-tuning;
 *  - kTvmLike:    dense im2col + blocked GEMM + Winograd for 3x3
 *                 (tensor-optimized, auto-tuned dense);
 *  - kMnnLike:    dense Winograd + hand-tuned tiling;
 *  - kPatDnnDense: our optimized dense baseline (Fig. 17a);
 *  - kCsrSparse:  pruned weights in CSR, conventional sparse execution;
 *  - kPatDnn:     the full pattern engine (FKR + FKW + LRE + tuning)
 *                 for 3x3 convs; other ungrouped convs, which patterns
 *                 do not cover, run connectivity-pruned through CSR.
 *
 * Relative orderings between these engines — not absolute ms — are the
 * reproduction target (see docs/ARCHITECTURE.md, "Substitutions").
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/passes.h"
#include "nn/model.h"
#include "nn/zoo.h"
#include "obs/profile.h"
#include "prune/quant.h"
#include "rt/conv_csr.h"
#include "rt/conv_im2col.h"
#include "rt/conv_naive.h"
#include "rt/conv_pattern.h"
#include "rt/conv_winograd.h"
#include "rt/device.h"
#include "rt/memplan.h"
#include "util/status.h"

namespace patdnn {

/** Engine selection for a whole-model run. */
enum class FrameworkKind
{
    kTfliteLike,
    kTvmLike,
    kMnnLike,
    kPatDnnDense,
    kCsrSparse,
    kPatDnn,
};

/** Display name used in bench output. */
std::string frameworkName(FrameworkKind kind);

/** Numeric precision of the dense conv executors. */
enum class Precision : uint32_t
{
    kF32 = 0,   ///< f32 packed GEMM (the default).
    kInt8 = 1,  ///< i8×i8→i32 packed GEMM with f32 requant epilogue.
};

/** Display name ("f32" / "i8"), as shown in RunProfile tables. */
const char* precisionName(Precision p);

/** Activation-scale calibration knobs for Precision::kInt8 compiles.
 * Compilation first builds the f32 engines, runs a synthetic
 * calibration batch through them observing every dense conv layer's
 * *input*, then rebuilds those executors in quantized mode with the
 * calibrated scales (recorded per layer; see prune/quant.h). */
struct CalibrationOptions
{
    CalibrationMethod method = CalibrationMethod::kAbsMax;
    double percentile = 99.9;  ///< Used by kPercentile only.
    int samples = 2;           ///< Calibration batch size.
    uint64_t seed = 1234;      ///< Synthetic calibration input seed.
};

/** Options controlling sparse compilation for the sparse engines. */
struct CompileOptions
{
    int pattern_count = 8;
    double connectivity_rate = 3.6;
    double first_layer_rate = 1.5;
    OptSwitches opts;       ///< FKR / LRE / tuning switches.
    TuneParams default_tuning;
    bool run_graph_passes = true;
    uint64_t seed = 5;
    /**
     * Run the offline activation-lifetime pass (rt/memplan.h) after
     * compilation and attach the resulting single-arena MemoryPlan to
     * the CompiledModel. Planning is geometry-only and cheap; the plan
     * is recorded in v4 artifacts and lets sessions replace their
     * per-layer Workspace with one arena of plan.arenaBytes(batch)
     * (SessionMemory::kAuto picks this up automatically). Disable only
     * to reproduce pre-plan behaviour byte-for-byte.
     */
    bool enable_memory_plan = true;
    /**
     * Optional per-layer tuned-parameter source consulted for each
     * conv layer at compile time (the Compiler facade wires the
     * process TuneCache here, so whole-model compiles pick up layer
     * tunings the GA already paid for). Returns true and fills *params
     * on a hit; a miss falls back to default_tuning. Not recorded in
     * artifacts.
     */
    std::function<bool(const ConvDesc&, TuneParams*)> tune_lookup;
    /**
     * Dense-executor precision knob. kInt8 quantizes every groups==1
     * conv of the dense GEMM kinds (im2col and Winograd-eligible layers
     * both run the quantized im2col path — Winograd's transform-domain
     * arithmetic does not survive int8): weights per-output-channel
     * symmetric, activations per-layer via `calibration`. The sparse
     * engines (pattern / CSR) and grouped convs stay f32; layer
     * interchange stays f32 throughout. Recorded in v6 artifacts.
     */
    Precision precision = Precision::kF32;
    CalibrationOptions calibration;
};

/**
 * Serializable snapshot of one compiled graph node: everything needed
 * to rebuild its executor on a (possibly different) device without
 * re-running pruning, reordering or tuning. Produced by
 * CompiledModel::exportState() and consumed by the state-restoring
 * constructor and the serve/ model-artifact (de)serializer.
 *
 * For kPatDnn 3x3 conv layers only the FKW storage plus tuned parameters
 * are carried (the dense weight view is reconstructed on restore); all
 * other layers carry their dense tensors.
 */
struct CompiledLayerState
{
    bool live = false;             ///< False for dead/eliminated node slots.
    OpKind kind = OpKind::kConv;
    ConvDesc conv;                 ///< For kConv.
    std::vector<int> inputs;       ///< Producer node ids (-1 = model input).
    bool fused_relu = false;
    int64_t pool_k = 2, pool_stride = 2;
    int64_t in_features = 0, out_features = 0;
    Tensor weight;                 ///< Dense weights (empty for pattern convs).
    Tensor bias;
    std::unique_ptr<FkwLayer> fkw; ///< Pattern-engine storage (kPatDnn 3x3 convs).
    TuneParams tuning;             ///< Pattern-engine tuned parameters.
    OptSwitches opts;              ///< Pattern-engine switches.
    /// Int8 quantization record (conv layers compiled at kInt8). The
    /// weights stay f32 in `weight`; scales are stored so restore
    /// re-quantizes deterministically to the same i8 values.
    bool quantized = false;
    float act_scale = 0.0f;           ///< Calibrated input scale.
    std::vector<float> weight_scales; ///< Per-output-channel scales.
};

/**
 * Per-session activation scratch: one value slot per graph node, reused
 * across runs. Each InferenceSession owns its own Workspace so that
 * concurrent sessions sharing one immutable CompiledModel never share
 * intermediate buffers.
 *
 * Two backing modes:
 *  - per-layer (default): every slot owns its own allocation, sized on
 *    first touch and kept across runs;
 *  - planned (bindPlan()): slots are views into ONE 64-byte-aligned
 *    arena laid out by an offline MemoryPlan, so the whole session
 *    costs plan.arenaBytes(batch) — peak-live, not sum-of-layers.
 */
class Workspace
{
  public:
    void resize(size_t nodes) { values_.resize(nodes); }
    size_t size() const { return values_.size(); }

    /**
     * Back this workspace with an activation plan; nullptr restores
     * per-layer mode. The plan must outlive the workspace (sessions
     * point at their shared model's plan). Switching modes drops all
     * cached slots.
     */
    void bindPlan(const MemoryPlan* plan);

    /** True when slots alias a planned arena. */
    bool planned() const { return plan_ != nullptr; }

    /** Called by CompiledModel at the start of every run: sizes the
     * arena for this batch and rebuilds slot views when the batch (and
     * with it every scaled offset) changed. No-op in per-layer mode. */
    void beginRun(int64_t batch);

    /**
     * Debug canary for plan correctness (used by the memplan execution
     * tests, including under ASan/UBSan — intra-arena stale reads are
     * invisible to ASan): when enabled, every arena range whose
     * lifetime ends at node `id` is NaN-poisoned right after node `id`
     * executes, so an executor that reads a freed range corrupts its
     * output instead of silently consuming stale bytes. Planned mode
     * only.
     */
    void setPoisonFreed(bool on) { poison_freed_ = on; }
    bool poisonFreed() const { return poison_freed_ && plan_ != nullptr; }
    void poisonFreedAfter(size_t id);

    /** Bytes currently backing activations: the arena allocation in
     * planned mode, the sum of slot allocations in per-layer mode
     * (0 before the first run in either mode). */
    size_t activationBytes() const;

    /** Slot for node id shaped to `shape` and zero-filled (executors
     * accumulate into their outputs). Reallocates only on shape change. */
    Tensor& fresh(size_t id, const Shape& shape);

    /** Slot for node id shaped to `shape`, contents unspecified; for
     * ops that overwrite every element. */
    Tensor& raw(size_t id, const Shape& shape);

    /** Read access to a produced value. */
    const Tensor& value(size_t id) const { return values_[id]; }

  private:
    std::vector<Tensor> values_;
    const MemoryPlan* plan_ = nullptr;  ///< Null: per-layer mode.
    Tensor arena_;                      ///< Planned mode backing store.
    int64_t batch_ = 0;                 ///< Batch the views were built for.
    bool poison_freed_ = false;
};

/**
 * A compiled, runnable model: per-conv-layer executors plus the simple
 * non-conv ops (pool/add/fc) executed directly. Holds all storage.
 *
 * Immutable once constructed: run() is const and safe to call from
 * many threads at once (each call only touches its Workspace and the
 * device thread pool, which serializes concurrent submitters), which is
 * what the serving layer's shared-weight sessions rely on.
 */
class CompiledModel
{
  public:
    /** Compile `model` for `kind` on `device`. Prunes a copy of the
     * weights for sparse engines (pattern projection + connectivity). */
    CompiledModel(const Model& model, FrameworkKind kind, DeviceSpec device,
                  CompileOptions opts = {});

    /**
     * Rebuild a model from previously exported per-layer state (the
     * serve/ artifact load path). No pruning, reordering or tuning
     * runs; engines are instantiated directly from the stored FKW /
     * dense weights for `device`. `tuned_isa` is the kernel ISA the
     * stored TuneParams were searched on (artifact header); execution
     * always uses the ISA of `device`, so a mismatch only means the
     * parameters may be off-width for this host. `compile_opts` is the
     * option record from the artifact header (v3+; defaults for older
     * artifacts).
     */
    CompiledModel(FrameworkKind kind, DeviceSpec device,
                  std::vector<CompiledLayerState> layers, int output_node,
                  SimdIsa tuned_isa = SimdIsa::kScalar,
                  CompileOptions compile_opts = {});
    ~CompiledModel();

    /** Run one NCHW input through every layer; returns final output. */
    Tensor run(const Tensor& input) const;

    /** Run using caller-owned activation scratch (serving sessions). */
    Tensor run(const Tensor& input, Workspace& ws) const;

    /**
     * Run with per-layer attribution: when `profile` is non-null, every
     * executed node is timed and accumulated into it (prepare() is
     * called to size it; pass the same profile across runs to
     * accumulate, reset() it for per-run numbers). Timing uses the
     * steady clock directly, independent of tracing; when the Tracer is
     * enabled a span per layer (cat "layer") plus a whole-run
     * "model.run" span (cat "rt") are emitted too.
     */
    Tensor run(const Tensor& input, Workspace& ws, RunProfile* profile) const;

    /** Median wall-clock of `run` over reps (after warmup). */
    double timeMs(const Tensor& input, int warmup = 1, int reps = 3) const;

    /** Sum of conv-layer times only (the paper's reported metric). */
    double convOnlyTimeMs(const Tensor& input, int warmup = 1, int reps = 3) const;

    /** Total non-zero conv weights after compilation. */
    int64_t convNonZeros() const;

    /** Dense conv weight count. */
    int64_t convDense() const;

    /**
     * Snapshot every node's compiled state (deep copy). Slot order is
     * node-id order; dead slots have live == false.
     */
    std::vector<CompiledLayerState> exportState() const;

    /** Node-id of the output value. */
    int outputNode() const { return output_node_; }

    /** Number of node slots (live + dead). */
    size_t nodeCount() const { return executors_.size(); }

    FrameworkKind kind() const { return kind_; }
    const DeviceSpec& device() const { return device_; }

    /** Kernel ISA the model's TuneParams were searched on (compile
     * time: the compile device's resolved ISA; restored models: the
     * value recorded in the artifact header). */
    SimdIsa tunedIsa() const { return tuned_isa_; }

    /** Options this model was compiled with (restored models: the
     * record from the artifact header, defaults for pre-v3 artifacts).
     * Recorded so a serving host can diagnose what produced an
     * artifact without re-deriving it from the weights. */
    const CompileOptions& compileOptions() const { return compile_opts_; }

    /**
     * The activation MemoryPlan computed at compile time (or restored
     * from a v4 artifact). Empty when planning was disabled, the graph
     * shapes could not be inferred, or the model came from a pre-v4
     * artifact — sessions then fall back to per-layer workspaces.
     */
    bool hasMemoryPlan() const { return !plan_.empty(); }
    const MemoryPlan& memoryPlan() const { return plan_; }

    /**
     * Planner view of the compiled graph: per-node liveness, producer
     * edges and per-sample output extents, derived by static shape
     * inference over the executor list. Empty when shapes cannot be
     * inferred (a non-conv node reads the model input directly).
     */
    std::vector<PlanNode> planNodes() const;

    /**
     * Validate `plan` against this model's graph and adopt it
     * (artifact-restore path: the plan record is parsed after the
     * layers, so it is attached after construction but before the
     * model is shared). kInvalidArgument with a diagnostic when the
     * plan does not fit this graph; the model is left plan-less.
     */
    Status adoptMemoryPlan(MemoryPlan plan);

  private:
    struct Executor;
    Tensor runLayers(const Tensor& input, Workspace& ws, double* conv_ms,
                     RunProfile* profile) const;
    /** Instantiate engine objects for a conv executor whose state
     * fields (weight / fkw / tuning) are already populated. */
    void attachConvEngines(Executor& ex) const;
    /** The kInt8 compile pass: run a synthetic calibration batch
     * through the freshly built f32 engines, then rebuild every
     * eligible dense conv executor in quantized mode. */
    void quantizeDenseConvLayers();
    /** Fill the executor's display label / engine-kind / ISA strings
     * (profile + trace attribution), after engines are attached. */
    void labelExecutor(Executor& ex, size_t id) const;

    FrameworkKind kind_;
    DeviceSpec device_;
    SimdIsa tuned_isa_ = SimdIsa::kScalar;
    CompileOptions compile_opts_;
    int output_node_ = -1;
    std::vector<std::unique_ptr<Executor>> executors_;  ///< Per node id.
    MemoryPlan plan_;  ///< Activation arena plan; may be empty.
};

/**
 * Convenience: build a single-layer compiled conv for a ConvDesc (used
 * by the per-layer benches). Weights are generated, pruned and packed
 * internally with the given options.
 */
class CompiledConvLayer
{
  public:
    CompiledConvLayer(const ConvDesc& desc, FrameworkKind kind, DeviceSpec device,
                      CompileOptions opts = {});

    void run(const Tensor& in, Tensor& out) const;

    /** Median time over reps after warmup. */
    double timeMs(int warmup = 1, int reps = 3) const;

    /** Achieved GFLOPS counting actually-executed MACs. */
    double gflops(double time_ms) const;

    /** Effective (non-zero) MACs per run. */
    int64_t effectiveMacs() const;

    const FkwLayer* fkw() const { return fkw_.get(); }
    const ConvDesc& desc() const { return desc_; }

    /** Re-run with different tuning (used by the tuner's measure fn). */
    double timeWithParams(const TuneParams& params, int reps = 2) const;

  private:
    ConvDesc desc_;
    FrameworkKind kind_;
    DeviceSpec device_;
    CompileOptions opts_;
    Tensor weight_;  ///< Dense (possibly pruned) weights.
    std::unique_ptr<FkwLayer> fkw_;
    std::unique_ptr<PatternConv> pattern_;
    std::unique_ptr<NaiveConv> naive_;
    std::unique_ptr<Im2colConv> im2col_;
    std::unique_ptr<WinogradConv> winograd_;
    std::unique_ptr<CsrConv> csr_;
    Tensor input_;
};

}  // namespace patdnn
