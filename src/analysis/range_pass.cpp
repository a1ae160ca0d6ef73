#include "analysis/range_pass.hpp"

#include <cmath>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/residual_block.hpp"

namespace dlis::analysis {

Interval
ValueRange::overall() const
{
    Interval h = ch.empty() ? Interval{} : ch[0];
    for (size_t i = 1; i < ch.size(); ++i)
        h = Interval::hull(h, ch[i]);
    return h;
}

namespace {

bool
tensorFinite(const Tensor &t)
{
    const float *p = t.data();
    const size_t n = t.shape().numel();
    for (size_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

/** Positive / negative sums of one weight group. */
struct WeightSums
{
    double pos = 0.0, neg = 0.0;

    void
    add(double w)
    {
        if (w >= 0)
            pos += w;
        else
            neg += w;
    }
};

/** Walks the network, carrying a ValueRange and an NCHW shape. */
class RangeWalker
{
  public:
    RangeWalker(const Shape &input, const Interval &inputRange)
        : shape_(input)
    {
        vr_.ch.assign(1, inputRange);
        if (input.rank() == 4 && input.c() > 0)
            vr_.ch.assign(input.c(), inputRange);
    }

    RangeReport report;

    void
    run(const Network &net)
    {
        for (const auto &layer : net.layers()) {
            if (!visit(*layer)) {
                report.complete = false;
                return;
            }
            report.units.push_back({layer.get(), layer->name(), vr_});
            if (!checkOverflow(layer->name())) {
                report.complete = false;
                return;
            }
        }
    }

  private:
    ValueRange vr_;
    Shape shape_;

    bool
    checkOverflow(const std::string &name)
    {
        for (const Interval &iv : vr_.ch) {
            if (iv.overflowsFloatRange()) {
                diag(report.diagnostics, Severity::Error,
                     Check::ActivationOverflow, name,
                     "activation interval " + iv.str() +
                         " escapes float range; a forward can "
                         "produce Inf/NaN from in-range inputs");
                return false;
            }
        }
        return true;
    }

    /** Advance the shape; false stops the walk (verifier owns the
     *  BadShape diagnostic, so stop silently). */
    bool
    advanceShape(const Layer &layer)
    {
        try {
            shape_ = layer.outputShape(shape_);
            return true;
        } catch (const FatalError &) {
            return false;
        }
    }

    /** Collapse to a single hull interval over @p groups groups. */
    void
    normalizeGroups(size_t groups)
    {
        if (vr_.groups() != groups && vr_.groups() != 1)
            vr_.ch.assign(1, vr_.overall());
    }

    bool
    nonFinite(const std::string &name, const char *what)
    {
        diag(report.diagnostics, Severity::Error,
             Check::NonFiniteWeight, name,
             std::string(what) +
                 " contains NaN/Inf; every forward is poisoned");
        return false;
    }

    bool
    visitConv(const Conv2d &conv)
    {
        const size_t cin = conv.cin(), cout = conv.cout();
        const size_t kk = conv.kernel() * conv.kernel();
        normalizeGroups(cin);

        // Zero padding makes 0 a reachable operand of every tap.
        std::vector<Interval> in(cin);
        for (size_t ci = 0; ci < cin; ++ci)
            in[ci] = conv.pad() > 0 ? vr_.at(ci).withZero()
                                    : vr_.at(ci);

        const bool dense = conv.format() == WeightFormat::Dense;
        const bool ternary =
            conv.format() == WeightFormat::PackedTernary;
        if (dense && !tensorFinite(conv.weight()))
            return nonFinite(conv.name(), "weight tensor");
        if (conv.hasBias() && !tensorFinite(conv.bias()))
            return nonFinite(conv.name(), "bias vector");
        if (ternary) {
            const PackedTernary &p = conv.packedWeight();
            if (!std::isfinite(p.wp()) || !std::isfinite(p.wn()))
                return nonFinite(conv.name(), "ternary codebook");
        }

        std::vector<Interval> out(cout);
        for (size_t o = 0; o < cout; ++o) {
            const double b =
                conv.hasBias() ? double(conv.bias().data()[o]) : 0.0;
            Interval acc = Interval::point(b);
            for (size_t ci = 0; ci < cin; ++ci) {
                WeightSums ws;
                if (dense) {
                    const float *w = conv.weight().data() +
                                     (o * cin + ci) * kk;
                    for (size_t t = 0; t < kk; ++t)
                        ws.add(w[t]);
                } else if (conv.format() == WeightFormat::Csr) {
                    const CsrSlice &s = conv.csrWeight().slice(o, ci);
                    for (float v : s.values) {
                        if (!std::isfinite(v))
                            return nonFinite(conv.name(),
                                             "CSR values");
                        ws.add(v);
                    }
                } else { // PackedTernary
                    const PackedTernary &p = conv.packedWeight();
                    const size_t base = (o * cin + ci) * kk;
                    for (size_t t = 0; t < kk; ++t)
                        ws.add(p.decode(base + t));
                }
                acc += in[ci].scaled(ws.pos) + in[ci].scaled(ws.neg);
            }
            out[o] = acc;
        }
        vr_.ch = std::move(out);
        return advanceShape(conv);
    }

    bool
    visitDepthwise(const DepthwiseConv2d &dw)
    {
        const size_t c = dw.channels();
        const size_t kk = dw.kernel() * dw.kernel();
        normalizeGroups(c);
        if (!tensorFinite(dw.weight()))
            return nonFinite(dw.name(), "weight tensor");

        std::vector<Interval> out(c);
        for (size_t ch = 0; ch < c; ++ch) {
            const Interval in = dw.pad() > 0 ? vr_.at(ch).withZero()
                                             : vr_.at(ch);
            WeightSums ws;
            const float *w = dw.weight().data() + ch * kk;
            for (size_t t = 0; t < kk; ++t)
                ws.add(w[t]);
            double b = 0.0;
            if (dw.hasBias()) {
                if (!std::isfinite(dw.bias().data()[ch]))
                    return nonFinite(dw.name(), "bias vector");
                b = dw.bias().data()[ch];
            }
            out[ch] = in.scaled(ws.pos) + in.scaled(ws.neg) +
                      Interval::point(b);
        }
        vr_.ch = std::move(out);
        return advanceShape(dw);
    }

    bool
    visitBatchNorm(const BatchNorm2d &bn)
    {
        const size_t c = bn.channels();
        normalizeGroups(c);
        if (!tensorFinite(bn.gamma()) || !tensorFinite(bn.beta()) ||
            !tensorFinite(bn.runningMean()) ||
            !tensorFinite(bn.runningVar()))
            return nonFinite(bn.name(), "batch-norm statistics");

        std::vector<Interval> out(c);
        for (size_t ch = 0; ch < c; ++ch) {
            const double var = bn.runningVar().data()[ch];
            const double denom = var + double(bn.eps());
            if (!(denom > 0.0)) {
                diag(report.diagnostics, Severity::Error,
                     Check::NonFiniteWeight, bn.name(),
                     "running variance + eps is non-positive for "
                     "channel " +
                         std::to_string(ch) +
                         "; the inference scale is NaN");
                return false;
            }
            const double scale =
                double(bn.gamma().data()[ch]) / std::sqrt(denom);
            const double shift =
                double(bn.beta().data()[ch]) -
                scale * double(bn.runningMean().data()[ch]);
            out[ch] = vr_.at(ch).affine(scale, shift);
        }
        vr_.ch = std::move(out);
        return advanceShape(bn);
    }

    bool
    visitLinear(const Linear &fc)
    {
        const size_t ni = fc.inFeatures(), no = fc.outFeatures();
        normalizeGroups(ni);
        const bool csr = fc.format() == WeightFormat::Csr;
        if (!csr && !tensorFinite(fc.weight()))
            return nonFinite(fc.name(), "weight matrix");
        if (!tensorFinite(fc.bias()))
            return nonFinite(fc.name(), "bias vector");

        std::vector<Interval> out(no);
        for (size_t o = 0; o < no; ++o) {
            Interval acc = Interval::point(double(fc.bias().data()[o]));
            if (csr) {
                const CsrMatrix &m = fc.csrWeight();
                for (int32_t e = m.rowPtr()[o];
                     e < m.rowPtr()[o + 1]; ++e) {
                    const double w = m.values()[size_t(e)];
                    if (!std::isfinite(w))
                        return nonFinite(fc.name(), "CSR values");
                    acc += vr_.at(size_t(m.colIdx()[size_t(e)])).scaled(w);
                }
            } else {
                const float *w = fc.weight().data() + o * ni;
                for (size_t i = 0; i < ni; ++i)
                    acc += vr_.at(i).scaled(w[i]);
            }
            out[o] = acc;
        }
        vr_.ch = std::move(out);
        return advanceShape(fc);
    }

    bool
    visitRelu(const ReLU &r)
    {
        size_t dead = 0;
        for (Interval &iv : vr_.ch) {
            if (iv.hi <= 0.0)
                ++dead;
            iv = iv.relu();
        }
        if (dead > 0 && vr_.groups() > 0) {
            const bool all = dead == vr_.groups();
            diag(report.diagnostics,
                 all ? Severity::Warning : Severity::Info,
                 Check::DeadOutput, r.name(),
                 all ? "every output is provably <= 0; the layer "
                       "(and everything after it) computes zeros"
                     : std::to_string(dead) + " of " +
                           std::to_string(vr_.groups()) +
                           " channel intervals are pinned <= 0 "
                           "(provably-dead outputs)");
        }
        return advanceShape(r);
    }

    bool
    visitResidual(const ResidualBlock &block)
    {
        const ValueRange in = vr_;
        const Shape inShape = shape_;

        const auto step = [this](auto &layer, auto visitFn) {
            return (this->*visitFn)(layer) && checkOverflow(layer.name());
        };
        if (!step(block.conv1(), &RangeWalker::visitConv) ||
            !step(block.bn1(), &RangeWalker::visitBatchNorm) ||
            !visitRelu(block.relu1()) ||
            !step(block.conv2(), &RangeWalker::visitConv) ||
            !step(block.bn2(), &RangeWalker::visitBatchNorm))
            return false;
        const ValueRange mainVr = vr_;
        const Shape mainShape = shape_;

        ValueRange skipVr = in;
        if (const Conv2d *proj = block.projection()) {
            vr_ = in;
            shape_ = inShape;
            if (!visitConv(*proj) || !checkOverflow(proj->name()) ||
                !visitBatchNorm(*block.projectionBn()))
                return false;
            skipVr = vr_;
        }

        // In-place skip-add, then the closing ReLU.
        const size_t groups =
            std::max(mainVr.groups(), skipVr.groups());
        std::vector<Interval> sum(groups);
        for (size_t c = 0; c < groups; ++c)
            sum[c] = (mainVr.at(c) + skipVr.at(c)).relu();

        vr_.ch = std::move(sum);
        shape_ = mainShape;
        return true;
    }

    bool
    visit(const Layer &layer)
    {
        if (const auto *conv = dynamic_cast<const Conv2d *>(&layer))
            return visitConv(*conv);
        if (const auto *dw =
                dynamic_cast<const DepthwiseConv2d *>(&layer))
            return visitDepthwise(*dw);
        if (const auto *bn =
                dynamic_cast<const BatchNorm2d *>(&layer))
            return visitBatchNorm(*bn);
        if (const auto *fc = dynamic_cast<const Linear *>(&layer))
            return visitLinear(*fc);
        if (const auto *r = dynamic_cast<const ReLU *>(&layer))
            return visitRelu(*r);
        if (const auto *block =
                dynamic_cast<const ResidualBlock *>(&layer))
            return visitResidual(*block);
        if (dynamic_cast<const Flatten *>(&layer)) {
            // Channels mix into one feature axis: collapse to the
            // hull so downstream per-feature reads stay sound.
            vr_.ch.assign(1, vr_.overall());
            return advanceShape(layer);
        }
        // Pooling and anything value-preserving: averages, max and
        // copies of in-interval values stay in-interval.
        return advanceShape(layer);
    }
};

} // namespace

RangeReport
propagateRanges(const Network &net, const Shape &input,
                const Interval &inputRange)
{
    RangeWalker walker(input, inputRange);
    walker.run(net);
    return walker.report;
}

} // namespace dlis::analysis
