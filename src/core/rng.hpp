/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Everything in dlis that needs randomness (weight init, synthetic data,
 * augmentation crops, random pruning) draws from an Rng instance
 * seeded explicitly, so every experiment is reproducible bit-for-bit
 * across runs. The generator is xoshiro256** seeded via
 * splitmix64, chosen for speed and well-studied statistical quality.
 */

#ifndef DLIS_CORE_RNG_HPP
#define DLIS_CORE_RNG_HPP

#include <cstdint>

namespace dlis {

/**
 * A small, fast, deterministic random number generator
 * (xoshiro256** with splitmix64 seeding).
 */
class Rng
{
  public:
    /** Construct with an explicit seed; same seed => same stream. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /**
     * Construct stream @p streamId of @p seed: a splitmix-style
     * derivation (the stream id is passed through the splitmix64
     * finaliser and folded into the seed) that gives every worker its
     * own statistically independent stream from one experiment seed,
     * with no shared generator state between workers. Stream 0 is
     * bit-identical to Rng(seed), so existing single-stream
     * experiments reproduce unchanged.
     */
    Rng(uint64_t seed, uint64_t streamId);

    /** Next raw 64-bit value. */
    uint64_t nextU64();

    /** Uniform in [0, 1). */
    double uniform();

    /** Uniform in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal via Box–Muller (cached second value). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /**
     * Split off an independent child stream (for parallel use).
     * Children are Rng(base, 1), Rng(base, 2), ... of this
     * generator's seeding base: derivation consumes no draws, so
     * splitting never perturbs the parent's own sequence (it used to
     * draw from the shared state, which made a stream's values depend
     * on how many children had been split off before each draw).
     */
    Rng split();

  private:
    uint64_t state_[4];
    uint64_t streamBase_;  //!< seeding base (seed + finalised stream id)
    uint64_t splitCount_ = 0; //!< child streams handed out so far
    double cachedNormal_;
    bool hasCachedNormal_;
};

} // namespace dlis

#endif // DLIS_CORE_RNG_HPP
