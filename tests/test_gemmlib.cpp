/**
 * @file
 * CLBlast-style GEMM library tests: correctness across tuning
 * configurations (parameterised), packing statistics, and the
 * CLTune-style auto-tuner.
 */

#include <gtest/gtest.h>

#include "backend/gemm.hpp"
#include "backend/gemmlib/autotuner.hpp"
#include "backend/gemmlib/tuned_gemm.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

using test::expectClose;
using test::randomTensor;

class TunedGemmTest
    : public ::testing::TestWithParam<gemmlib::TuneConfig>
{
};

TEST_P(TunedGemmTest, MatchesNaiveOnOddSizes)
{
    const gemmlib::TuneConfig config = GetParam();
    const size_t m = 37, k = 53, n = 29;
    Tensor a = randomTensor(Shape{m, k}, 1);
    Tensor b = randomTensor(Shape{k, n}, 2);

    Tensor ref(Shape{m, n});
    kernels::gemmNaive(a.data(), b.data(), ref.data(), m, k, n);

    gemmlib::GemmLibrary lib(config);
    Tensor c(Shape{m, n});
    lib.gemm(a.data(), b.data(), c.data(), m, k, n, {1});
    expectClose(c, ref, 1e-3f);
}

namespace {

gemmlib::TuneConfig
cfg(size_t mwg, size_t nwg, size_t kwg)
{
    gemmlib::TuneConfig c;
    c.mwg = mwg;
    c.nwg = nwg;
    c.kwg = kwg;
    return c;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Configs, TunedGemmTest,
                         ::testing::Values(cfg(16, 16, 16),
                                           cfg(32, 64, 64),
                                           cfg(64, 16, 32),
                                           cfg(64, 128, 64),
                                           cfg(16, 64, 16)));

TEST(GemmLibrary, StatsAccountPaddingWaste)
{
    gemmlib::GemmLibrary lib(cfg(64, 64, 64));
    const size_t m = 10, k = 10, n = 10; // tiny: heavy padding
    Tensor a = randomTensor(Shape{m, k}, 3);
    Tensor b = randomTensor(Shape{k, n}, 4);
    Tensor c(Shape{m, n});
    lib.gemm(a.data(), b.data(), c.data(), m, k, n, {1});

    const auto &stats = lib.stats();
    EXPECT_EQ(stats.kernelLaunches, 1u);
    EXPECT_EQ(stats.flops, 2 * m * k * n);
    EXPECT_EQ(stats.paddedFlops, 2 * 64 * 64 * 64u);
    // > 99.5% of the padded work is waste on this problem.
    EXPECT_GT(static_cast<double>(stats.paddedFlops) /
                  static_cast<double>(stats.flops),
              100.0);
    EXPECT_GT(stats.packedBytes, (m * k + k * n + m * n) * 4);

    lib.resetStats();
    EXPECT_EQ(lib.stats().kernelLaunches, 0u);
}

TEST(GemmLibrary, LargeMatricesAmortisePadding)
{
    gemmlib::GemmLibrary lib(cfg(64, 64, 64));
    const size_t m = 512, k = 512, n = 512;
    Tensor a = randomTensor(Shape{m, k}, 5);
    Tensor b = randomTensor(Shape{k, n}, 6);
    Tensor c(Shape{m, n});
    lib.gemm(a.data(), b.data(), c.data(), m, k, n, {1});
    EXPECT_EQ(lib.stats().paddedFlops, lib.stats().flops);
}

TEST(GemmLibrary, ConfigStringListsAllParameters)
{
    const std::string s = gemmlib::TuneConfig{}.str();
    for (const char *key : {"MWG", "NWG", "KWG", "MDIMC", "NDIMC",
                            "MDIMA", "NDIMB", "KWI", "VWM", "VWN",
                            "STRM", "STRN", "SA", "SB"})
        EXPECT_NE(s.find(key), std::string::npos) << key;
}

TEST(Autotuner, ReturnsSortedResultsIncludingDefault)
{
    gemmlib::TunerOptions options;
    options.maxTrials = 4;
    options.repetitions = 1;
    const auto results = gemmlib::tuneGemm(48, 48, 48, options);
    ASSERT_EQ(results.size(), 4u);
    for (size_t i = 1; i < results.size(); ++i)
        EXPECT_LE(results[i - 1].seconds, results[i].seconds);
    for (const auto &r : results)
        EXPECT_GT(r.seconds, 0.0);
}

TEST(Autotuner, DeterministicForSeed)
{
    gemmlib::TunerOptions options;
    options.maxTrials = 3;
    options.repetitions = 1;
    options.seed = 77;
    const auto a = gemmlib::tuneGemm(32, 32, 32, options);
    const auto b = gemmlib::tuneGemm(32, 32, 32, options);
    ASSERT_EQ(a.size(), b.size());
    // The same candidate set is explored (timings may differ).
    for (size_t i = 0; i < a.size(); ++i) {
        bool found = false;
        for (size_t j = 0; j < b.size(); ++j)
            found |= a[i].config.str() == b[j].config.str();
        EXPECT_TRUE(found) << a[i].config.str();
    }
}

} // namespace
} // namespace dlis
