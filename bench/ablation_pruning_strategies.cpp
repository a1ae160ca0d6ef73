/**
 * @file
 * Ablation — channel-selection strategy: Fisher-information pruning
 * (the paper's choice, §IV-B) versus uniform-random pruning (the
 * surprising baseline of [35], cited in §III-B). Both remove the same
 * number of channels from identically-trained networks with the same
 * fine-tuning budget; Fisher should retain (at least) as much
 * accuracy, and the random baseline shows how much of the win is just
 * "retraining heals the network".
 *
 * Runs for real on SynthCIFAR at reduced width, on the scalar kernel
 * table: FMA rounding in the vector kernels shifts the training
 * trajectory, and the scalar table is the one every host runs, so the
 * committed CSV reproduces byte for byte anywhere.
 */

#include <cstdio>

#include "backend/simd/dispatch.hpp"
#include "compress/fisher_pruner.hpp"
#include "compress/random_pruner.hpp"
#include "data/synth_cifar.hpp"
#include "bench_common.hpp"
#include "stack/report.hpp"
#include "train/trainer.hpp"

using namespace dlis;

namespace {

struct Outcome
{
    double accuracy;
    double compressionRate;
};

Outcome
runStrategy(bool use_fisher, const SynthCifarSplit &data,
            size_t channels)
{
    Rng rng(1234); // identical init for both strategies
    Model m = makeVgg16(10, 0.125, rng);

    TrainConfig tc;
    tc.batchSize = 32;
    tc.baseLr = 0.05;
    Trainer trainer(m.net, data.train, tc);
    trainer.trainEpochs(2);

    double rate = 0.0;
    if (use_fisher) {
        FisherConfig fc;
        fc.stepsBetweenPrunes = 2;
        FisherPruner pruner(m, Shape{1, 3, 32, 32}, fc);
        pruner.run(trainer, channels);
        rate = pruner.compressionRate();
    } else {
        RandomPruner pruner(m, 77);
        // Same fine-tuning budget, channels removed up front is
        // unfair; interleave like the Fisher schedule.
        const size_t rounds = channels;
        for (size_t i = 0; i < rounds; ++i) {
            trainer.trainSteps(2, 0.08);
            if (pruner.removeChannels(1) == 0)
                break;
            trainer.resetOptimizer();
        }
        rate = pruner.compressionRate();
    }
    // Final recovery fine-tune, equal for both.
    trainer.trainSteps(10, 0.08);
    return {trainer.evaluate(data.test), rate};
}

} // namespace

int
main()
{
    const simd::ScopedForceIsa scalar(simd::SimdIsa::Scalar);
    const SynthCifarSplit data = makeSynthCifarSplit(320, 160);

    TablePrinter table("Ablation — Fisher vs random channel pruning "
                       "(VGG-16 width 0.125, SynthCIFAR, equal "
                       "fine-tune budget)");
    table.setHeader({"strategy", "channels removed", "compression",
                     "top-1 accuracy"});

    for (size_t channels : {24ul, 48ul}) {
        const Outcome fisher = runStrategy(true, data, channels);
        const Outcome random = runStrategy(false, data, channels);
        table.addRow({"fisher", std::to_string(channels),
                      fmtPercent(fisher.compressionRate),
                      fmtPercent(fisher.accuracy)});
        table.addRow({"random", std::to_string(channels),
                      fmtPercent(random.compressionRate),
                      fmtPercent(random.accuracy)});
    }
    table.print();
    bench::writeBenchOutputs(table, "ablation_pruning_strategies");

    std::printf("\nBoth strategies survive moderate pruning after "
                "fine-tuning (the [35] observation); Fisher's "
                "saliency+FLOP criterion decides *where* capacity is "
                "removed, which matters more as the rate grows.\n");
    return 0;
}
