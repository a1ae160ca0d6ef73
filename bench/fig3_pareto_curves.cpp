/**
 * @file
 * Fig 3: accuracy/compression Pareto curves for the three models under
 * (a) weight pruning, (b) channel pruning, (c) ternary quantisation.
 *
 * Two kinds of rows are produced:
 *  - paper-calibrated: the parametric fit to the paper's published
 *    anchor points, evaluated at paper scale (see
 *    src/stack/calibration.hpp);
 *  - measured-synthetic: the full recipe (train -> compress ->
 *    fine-tune -> evaluate) run for real on width-reduced models and
 *    the SynthCIFAR dataset. These demonstrate the *trend* — e.g.
 *    accuracy surviving moderate pruning then collapsing — not the
 *    paper's absolute numbers. The sweep runs on the scalar kernel
 *    table: FMA rounding in the vector kernels shifts the training
 *    trajectory, and the scalar table is the one every host runs, so
 *    results/fig3a_measured.csv reproduces byte for byte anywhere.
 *
 * Set DLIS_FIG3_MEASURED=0 to skip the (slower) measured sweep.
 */

#include <cstdio>
#include <cstdlib>

#include "backend/simd/dispatch.hpp"
#include "bench_common.hpp"
#include "compress/magnitude_pruner.hpp"
#include "compress/ttq.hpp"
#include "data/synth_cifar.hpp"
#include "stack/calibration.hpp"
#include "train/trainer.hpp"

using namespace dlis;

namespace {

void
printCalibratedCurves()
{
    {
        TablePrinter t("Fig 3(a) — accuracy vs weight-pruning sparsity "
                       "(paper-calibrated)");
        t.setHeader({"sparsity%", "vgg16", "resnet18", "mobilenet"});
        for (int pct = 0; pct <= 95; pct += 5) {
            const double s = pct / 100.0;
            t.addRow({std::to_string(pct),
                      fmtPercent(calib::weightPruningAccuracy("vgg16",
                                                              s)),
                      fmtPercent(
                          calib::weightPruningAccuracy("resnet18", s)),
                      fmtPercent(calib::weightPruningAccuracy(
                          "mobilenet", s))});
        }
        t.print();
        bench::writeBenchOutputs(t, "fig3a");
    }
    {
        TablePrinter t("Fig 3(b) — accuracy vs channel-pruning "
                       "compression rate (paper-calibrated)");
        t.setHeader({"rate%", "vgg16", "resnet18", "mobilenet"});
        for (int pct = 60; pct <= 97; pct += 4) {
            const double r = pct / 100.0;
            t.addRow({std::to_string(pct),
                      fmtPercent(
                          calib::channelPruningAccuracy("vgg16", r)),
                      fmtPercent(
                          calib::channelPruningAccuracy("resnet18", r)),
                      fmtPercent(calib::channelPruningAccuracy(
                          "mobilenet", r))});
        }
        t.print();
        bench::writeBenchOutputs(t, "fig3b");
    }
    {
        TablePrinter t("Fig 3(c) — accuracy vs TTQ threshold "
                       "(paper-calibrated)");
        t.setHeader({"threshold", "vgg16", "resnet18", "mobilenet"});
        for (int i = 0; i <= 10; ++i) {
            const double thr = 0.02 * i;
            t.addRow({fmtDouble(thr, 2),
                      fmtPercent(calib::ttqAccuracy("vgg16", thr)),
                      fmtPercent(calib::ttqAccuracy("resnet18", thr)),
                      fmtPercent(calib::ttqAccuracy("mobilenet", thr))});
        }
        t.print();
        bench::writeBenchOutputs(t, "fig3c");
    }
}

/** Train a width-reduced model on SynthCIFAR; return test accuracy. */
double
trainSmall(const SynthCifarSplit &data, Trainer &trainer, size_t epochs)
{
    trainer.trainEpochs(epochs);
    return trainer.evaluate(data.test);
}

void
measuredSweep()
{
    const simd::ScopedForceIsa scalar(simd::SimdIsa::Scalar);
    const SynthCifarSplit data = makeSynthCifarSplit(512, 256);
    TrainConfig tc;
    tc.batchSize = 32;
    tc.baseLr = 0.05;
    tc.augment = true;

    TablePrinter t("Fig 3(a') — measured-synthetic: VGG-16 (width "
                   "0.125) on SynthCIFAR, iterative prune + fine-tune");
    t.setHeader({"sparsity%", "top-1 acc", "note"});

    Rng rng(3);
    Model model = makeVgg16(10, 0.125, rng);
    Trainer trainer(model.net, data.train, tc);
    const double base = trainSmall(data, trainer, 4);
    t.addRow({"0", fmtPercent(base), "trained from scratch"});

    MagnitudePruner pruner;
    for (double s : {0.5, 0.8, 0.95}) {
        pruner.pruneToSparsity(model, s);
        trainer.setPostStepHook([&] { pruner.applyMasks(model); });
        trainer.trainSteps(data.train.size() / tc.batchSize, 0.2);
        trainer.setPostStepHook(nullptr);
        const double acc = trainer.evaluate(data.test);
        t.addRow({fmtDouble(s * 100.0, 0), fmtPercent(acc),
                  "pruned + fine-tuned, sparsity " +
                      fmtPercent(model.weightSparsity())});
    }
    t.print();
    bench::writeBenchOutputs(t, "fig3a_measured");
}

} // namespace

int
main()
{
    printCalibratedCurves();

    const char *flag = std::getenv("DLIS_FIG3_MEASURED");
    if (!flag || std::string(flag) != "0") {
        std::printf("\nRunning the measured-synthetic sweep (set "
                    "DLIS_FIG3_MEASURED=0 to skip)...\n");
        measuredSweep();
    }
    return 0;
}
