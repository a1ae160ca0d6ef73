#include "analysis/verifier.hpp"

#include <set>
#include <sstream>

#include "analysis/sparse_checks.hpp"
#include "nn/models/model.hpp"
#include "nn/pooling.hpp"
#include "nn/residual_block.hpp"

namespace dlis::analysis {

namespace {

/**
 * The format/algorithm capability rule for one standard convolution —
 * shared by the net-wide verifier walk and the per-layer
 * checkLayerExecution front end plan validation uses.
 */
void
convCapabilityDiags(const Conv2d &conv, ConvAlgo algo,
                    std::vector<Diagnostic> &out)
{
    const WeightFormat fmt = conv.format();
    if (fmt != WeightFormat::Dense && algo != ConvAlgo::Direct)
        diag(out, Severity::Warning, Check::AlgoIgnored, conv.name(),
             std::string(weightFormatName(fmt)) +
                 " weights dispatch the direct sparse kernel; "
                 "the requested algorithm is ignored");
}

/** Walks a network symbolically, collecting diagnostics. */
class NetworkVerifier
{
  public:
    explicit NetworkVerifier(const VerifyOptions &opt) : opt_(opt) {}

    std::vector<Diagnostic> diags;
    bool shapesOk = true;

    void
    run(const Network &net)
    {
        if (opt_.threads < 1)
            diag(diags, Severity::Error, Check::BadConfig, "",
                 "thread count must be >= 1, got " +
                     std::to_string(opt_.threads));
        if (net.size() == 0)
            diag(diags, Severity::Warning, Check::EmptyNetwork, "",
                 "network has no layers");
        if (opt_.input.rank() == 4 && opt_.input.n() == 0)
            diag(diags, Severity::Error, Check::BadConfig, "",
                 "batch dimension is 0 in " + opt_.input.str());

        // Layer names key DeploymentPlan overrides and per-layer
        // report rows; a duplicate silently aliases both.
        std::set<std::string> seen;
        for (const auto &layer : net.layers())
            if (!seen.insert(layer->name()).second)
                diag(diags, Severity::Error, Check::DuplicateLayerName,
                     layer->name(),
                     "name is shared by an earlier layer; plan "
                     "overrides and analysis reports would alias");

        Shape cur = opt_.input;
        for (const auto &layer : net.layers()) {
            if (!visitLayer(*layer, cur)) {
                shapesOk = false;
                diag(diags, Severity::Info, Check::BadShape,
                     layer->name(),
                     "shape propagation stopped here; later layers "
                     "not shape-checked");
                break;
            }
        }

        checkFoldBnPairs(net);
    }

  private:
    const VerifyOptions &opt_;

    static std::string
    shapeStr(const Shape &s)
    {
        return s.str();
    }

    /** Advance @p cur through @p layer; false stops the walk. */
    bool
    advance(const Layer &layer, Shape &cur)
    {
        try {
            cur = layer.outputShape(cur);
            return true;
        } catch (const FatalError &e) {
            diag(diags, Severity::Error, Check::BadShape, layer.name(),
                 e.what());
            return false;
        }
    }

    /** A non-finite-weight Error unless every value of @p t is
     *  finite; the shape walk goes on either way. */
    void
    requireFinite(const Layer &layer, const Tensor &t, const char *what)
    {
        if (!allFinite(t.data(), t.numel()))
            diag(diags, Severity::Error, Check::NonFiniteWeight,
                 layer.name(),
                 std::string(what) +
                     " contains NaN/Inf; every forward is poisoned");
    }

    bool
    requireRank4(const Layer &layer, const Shape &s)
    {
        if (s.rank() == 4)
            return true;
        diag(diags, Severity::Error, Check::BadShape, layer.name(),
             "expects an NCHW input, got " + shapeStr(s));
        return false;
    }

    bool
    checkConv(const Conv2d &conv, const Shape &s)
    {
        if (!requireRank4(conv, s))
            return false;
        bool ok = true;
        if (s.c() != conv.cin()) {
            diag(diags, Severity::Error, Check::ChannelMismatch,
                 conv.name(),
                 "expects " + std::to_string(conv.cin()) +
                     " input channels, gets " + std::to_string(s.c()) +
                     " from " + shapeStr(s));
            ok = false;
        }
        if (s.h() + 2 * conv.pad() < conv.kernel() ||
            s.w() + 2 * conv.pad() < conv.kernel()) {
            diag(diags, Severity::Error, Check::SpatialUnderflow,
                 conv.name(),
                 std::to_string(conv.kernel()) + "x" +
                     std::to_string(conv.kernel()) +
                     " kernel larger than padded input " + shapeStr(s) +
                     " (pad " + std::to_string(conv.pad()) + ")");
            ok = false;
        }

        const WeightFormat fmt = conv.format();
        convCapabilityDiags(conv, opt_.convAlgo, diags);
        if (fmt == WeightFormat::Dense)
            requireFinite(conv, conv.weight(), "weight tensor");
        if (conv.hasBias())
            requireFinite(conv, conv.bias(), "bias vector");

        if (fmt == WeightFormat::Csr) {
            const CsrFilterBank &bank = conv.csrWeight();
            if (bank.outChannels() != conv.cout() ||
                bank.inChannels() != conv.cin() ||
                bank.kernelH() != conv.kernel() ||
                bank.kernelW() != conv.kernel()) {
                std::ostringstream oss;
                oss << "CSR bank geometry [" << bank.outChannels()
                    << ", " << bank.inChannels() << ", "
                    << bank.kernelH() << ", " << bank.kernelW()
                    << "] does not match conv [" << conv.cout() << ", "
                    << conv.cin() << ", " << conv.kernel() << ", "
                    << conv.kernel() << "]";
                diag(diags, Severity::Error, Check::SizeMismatch,
                     conv.name(), oss.str());
            } else {
                verifyCsrFilterBank(bank, conv.name(), diags);
            }
        } else if (fmt == WeightFormat::PackedTernary) {
            const PackedTernary &packed = conv.packedWeight();
            const Shape expect{conv.cout(), conv.cin(), conv.kernel(),
                               conv.kernel()};
            if (!(packed.shape() == expect))
                diag(diags, Severity::Error, Check::SizeMismatch,
                     conv.name(),
                     "packed shape " + packed.shape().str() +
                         " does not match filter " + expect.str());
            verifyPackedTernary(packed, conv.name(), diags);
        }
        return ok;
    }

    bool
    checkDepthwise(const DepthwiseConv2d &dw, const Shape &s)
    {
        if (!requireRank4(dw, s))
            return false;
        bool ok = true;
        if (s.c() != dw.channels()) {
            diag(diags, Severity::Error, Check::ChannelMismatch,
                 dw.name(),
                 "expects " + std::to_string(dw.channels()) +
                     " channels, gets " + std::to_string(s.c()));
            ok = false;
        }
        if (s.h() + 2 * dw.pad() < dw.kernel() ||
            s.w() + 2 * dw.pad() < dw.kernel()) {
            diag(diags, Severity::Error, Check::SpatialUnderflow,
                 dw.name(),
                 "kernel larger than padded input " + shapeStr(s));
            ok = false;
        }
        requireFinite(dw, dw.weight(), "weight tensor");
        if (dw.hasBias())
            requireFinite(dw, dw.bias(), "bias vector");
        return ok;
    }

    bool
    checkBatchNorm(const BatchNorm2d &bn, const Shape &s)
    {
        if (!requireRank4(bn, s))
            return false;
        if (s.c() != bn.channels()) {
            diag(diags, Severity::Error, Check::ChannelMismatch,
                 bn.name(),
                 "normalises " + std::to_string(bn.channels()) +
                     " channels, gets " + std::to_string(s.c()));
            return false;
        }
        requireFinite(bn, bn.gamma(), "gamma");
        requireFinite(bn, bn.beta(), "beta");
        requireFinite(bn, bn.runningMean(), "running mean");
        requireFinite(bn, bn.runningVar(), "running variance");
        // The inference scale is gamma / sqrt(var + eps), in float.
        const float *var = bn.runningVar().data();
        for (size_t ch = 0; ch < bn.channels(); ++ch) {
            if (!(var[ch] + bn.eps() > 0.0f)) {
                diag(diags, Severity::Error, Check::NonFiniteWeight,
                     bn.name(),
                     "running variance + eps is not positive for "
                     "channel " +
                         std::to_string(ch) +
                         "; the inference scale is NaN");
                break;
            }
        }
        return true;
    }

    bool
    checkLinear(const Linear &fc, const Shape &s)
    {
        if (s.rank() < 2) {
            diag(diags, Severity::Error, Check::BadShape, fc.name(),
                 "expects a batched input, got " + shapeStr(s));
            return false;
        }
        const size_t features = s.numel() / s[0];
        if (features != fc.inFeatures()) {
            diag(diags, Severity::Error, Check::ChannelMismatch,
                 fc.name(),
                 "expects " + std::to_string(fc.inFeatures()) +
                     " features, gets " + std::to_string(features) +
                     " from " + shapeStr(s));
            return false;
        }
        if (fc.format() == WeightFormat::Dense)
            requireFinite(fc, fc.weight(), "weight matrix");
        requireFinite(fc, fc.bias(), "bias vector");
        if (fc.format() == WeightFormat::Csr) {
            const CsrMatrix &m = fc.csrWeight();
            if (m.rows() != fc.outFeatures() ||
                m.cols() != fc.inFeatures())
                diag(diags, Severity::Error, Check::SizeMismatch,
                     fc.name(),
                     "CSR matrix is " + std::to_string(m.rows()) +
                         "x" + std::to_string(m.cols()) +
                         ", expected " +
                         std::to_string(fc.outFeatures()) + "x" +
                         std::to_string(fc.inFeatures()));
            else
                verifyCsrMatrix(m, fc.name(), diags);
        }
        return true;
    }

    bool
    checkMaxPool(const MaxPool2d &pool, const Shape &s)
    {
        if (!requireRank4(pool, s))
            return false;
        const size_t k = pool.kernel();
        if (s.h() < k || s.w() < k) {
            diag(diags, Severity::Error, Check::SpatialUnderflow,
                 pool.name(),
                 std::to_string(k) + "x" + std::to_string(k) +
                     " window larger than input " + shapeStr(s));
            return false;
        }
        if (s.h() % k != 0 || s.w() % k != 0) {
            diag(diags, Severity::Error, Check::PoolTruncation,
                 pool.name(),
                 shapeStr(s) + " not divisible by " +
                     std::to_string(k) +
                     "; the runtime rejects this forward");
            return false;
        }
        return true;
    }

    bool
    checkResidual(const ResidualBlock &block, Shape &cur)
    {
        const Shape in = cur;
        Shape main = in;
        if (!checkConv(block.conv1(), main) ||
            !advance(block.conv1(), main))
            return false;
        if (!checkBatchNorm(block.bn1(), main))
            return false;
        if (!checkConv(block.conv2(), main) ||
            !advance(block.conv2(), main))
            return false;
        if (!checkBatchNorm(block.bn2(), main))
            return false;

        Shape skip = in;
        if (const Conv2d *proj = block.projection()) {
            if (!checkConv(*proj, skip) || !advance(*proj, skip))
                return false;
            if (!checkBatchNorm(*block.projectionBn(), skip))
                return false;
        }

        // The elementwise skip-add mutates the main tensor in place;
        // mismatched operands are the aliasing hazard a mid-run panic
        // (or silent out-of-bounds read) would otherwise surface.
        if (!(main == skip)) {
            diag(diags, Severity::Error, Check::ResidualAddMismatch,
                 block.name(),
                 "in-place skip-add over mismatched shapes: main "
                 "path yields " +
                     shapeStr(main) + ", skip path yields " +
                     shapeStr(skip));
            return false;
        }
        cur = main;
        return true;
    }

    /** Dispatch one layer; false stops shape propagation. */
    bool
    visitLayer(const Layer &layer, Shape &cur)
    {
        if (const auto *conv = dynamic_cast<const Conv2d *>(&layer))
            return checkConv(*conv, cur) && advance(layer, cur);
        if (const auto *dw =
                dynamic_cast<const DepthwiseConv2d *>(&layer))
            return checkDepthwise(*dw, cur) && advance(layer, cur);
        if (const auto *bn = dynamic_cast<const BatchNorm2d *>(&layer))
            return checkBatchNorm(*bn, cur) && advance(layer, cur);
        if (const auto *fc = dynamic_cast<const Linear *>(&layer))
            return checkLinear(*fc, cur) && advance(layer, cur);
        if (const auto *pool = dynamic_cast<const MaxPool2d *>(&layer))
            return checkMaxPool(*pool, cur) && advance(layer, cur);
        if (const auto *block =
                dynamic_cast<const ResidualBlock *>(&layer))
            return checkResidual(*block, cur);
        // ReLU, Flatten, GlobalAvgPool, custom layers: the layer's own
        // outputShape carries the checks.
        return advance(layer, cur);
    }

    /** Conv->BN pairs that foldBatchNorms would reject or corrupt. */
    void
    checkFoldBnPairs(const Network &net)
    {
        const auto &layers = net.layers();
        for (size_t i = 0; i + 1 < layers.size(); ++i) {
            const auto *bn =
                dynamic_cast<const BatchNorm2d *>(layers[i + 1].get());
            if (!bn)
                continue;
            const auto *conv =
                dynamic_cast<const Conv2d *>(layers[i].get());
            if (conv && conv->format() != WeightFormat::Dense)
                diag(diags, Severity::Warning, Check::FoldBnHazard,
                     conv->name(),
                     "followed by a batch norm but weights are " +
                         std::string(weightFormatName(conv->format())) +
                         "; foldBatchNorms requires dense weights — "
                         "fold before format conversion");
        }
    }
};

} // namespace

bool
VerifyReport::ok() const
{
    return count(Severity::Error) == 0;
}

size_t
VerifyReport::count(Severity severity) const
{
    size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        if (d.severity == severity)
            ++n;
    return n;
}

bool
VerifyReport::has(Check c) const
{
    for (const Diagnostic &d : diagnostics)
        if (d.check == c)
            return true;
    return false;
}

std::string
VerifyReport::firstError() const
{
    for (const Diagnostic &d : diagnostics)
        if (d.severity == Severity::Error)
            return d.str();
    return "";
}

std::string
VerifyReport::str() const
{
    std::ostringstream oss;
    for (const Diagnostic &d : diagnostics)
        oss << d.str() << "\n";
    oss << (ok() ? "verification passed" : "verification FAILED")
        << " (" << count(Severity::Error) << " errors, "
        << count(Severity::Warning) << " warnings, "
        << count(Severity::Info) << " notes)";
    return oss.str();
}

std::vector<Diagnostic>
checkLayerExecution(const Layer &layer, ConvAlgo algo)
{
    std::vector<Diagnostic> out;
    if (const auto *conv = dynamic_cast<const Conv2d *>(&layer)) {
        convCapabilityDiags(*conv, algo, out);
    } else if (const auto *block =
                   dynamic_cast<const ResidualBlock *>(&layer)) {
        convCapabilityDiags(block->conv1(), algo, out);
        convCapabilityDiags(block->conv2(), algo, out);
        if (const Conv2d *proj = block->projection())
            convCapabilityDiags(*proj, algo, out);
    }
    // Depthwise convolutions always run the direct kernel, and linear
    // layers route CSR through the sparse kernel under any algorithm:
    // no rule fires for them.
    return out;
}

VerifyReport
verifyNetwork(const Network &net, const VerifyOptions &options)
{
    VerifyReport report;
    NetworkVerifier verifier(options);
    verifier.run(net);
    report.diagnostics = std::move(verifier.diags);

    if (options.estimateMemory && verifier.shapesOk) {
        try {
            report.memory = estimateForwardMemory(
                net, options.input, options.backend, options.convAlgo,
                options.threads);
            report.memoryEstimated = true;
        } catch (const FatalError &e) {
            diag(report.diagnostics, Severity::Error, Check::BadShape,
                 "", std::string("memory estimate failed: ") +
                         e.what());
        }
    }
    return report;
}

} // namespace dlis::analysis
