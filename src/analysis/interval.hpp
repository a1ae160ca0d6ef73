/**
 * @file
 * Interval arithmetic for the static range-propagation pass.
 *
 * Intervals are closed, carried as doubles so that float-overflow
 * detection is itself exact: every float activation the runtime can
 * produce is representable, and a bound that escapes float range shows
 * up as a double magnitude beyond kFloatMax rather than as a rounded
 * infinity. All operations are outward-sound: the result interval
 * contains every value the exact operation could produce on operands
 * drawn from the input intervals.
 *
 * These helpers are also the project-sanctioned way to ask "does this
 * value fit in a float" — dlis_lint bans raw
 * std::numeric_limits<float> sentinel comparisons outside
 * src/analysis/ in favour of overflowsFloat()/isFiniteValue().
 */

#ifndef DLIS_ANALYSIS_INTERVAL_HPP
#define DLIS_ANALYSIS_INTERVAL_HPP

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace dlis::analysis {

/** Largest finite float, as a double. */
inline constexpr double kFloatMax = 3.40282346638528859812e+38;

/** True when @p v is neither NaN nor infinite. */
inline bool
isFiniteValue(double v)
{
    return std::isfinite(v);
}

/** True when @p v cannot be represented as a finite float. */
inline bool
overflowsFloat(double v)
{
    return !std::isfinite(v) || std::fabs(v) > kFloatMax;
}

/** A closed interval [lo, hi] of reachable values. */
struct Interval
{
    double lo = 0.0;
    double hi = 0.0;

    /** The degenerate interval {v}. */
    static Interval
    point(double v)
    {
        return {v, v};
    }

    /** Smallest interval containing both operands. */
    static Interval
    hull(const Interval &a, const Interval &b)
    {
        return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
    }

    Interval
    operator+(const Interval &o) const
    {
        return {lo + o.lo, hi + o.hi};
    }

    Interval &
    operator+=(const Interval &o)
    {
        lo += o.lo;
        hi += o.hi;
        return *this;
    }

    /** Scale by a (possibly negative) constant. */
    Interval
    scaled(double a) const
    {
        return a >= 0 ? Interval{a * lo, a * hi}
                      : Interval{a * hi, a * lo};
    }

    /** Affine image a*x + b over x in this interval. */
    Interval
    affine(double a, double b) const
    {
        Interval s = scaled(a);
        return {s.lo + b, s.hi + b};
    }

    /** Image under max(x, 0). */
    Interval
    relu() const
    {
        return {std::max(lo, 0.0), std::max(hi, 0.0)};
    }

    /** Widen to include 0 (zero padding contributes zeros). */
    Interval
    withZero() const
    {
        return {std::min(lo, 0.0), std::max(hi, 0.0)};
    }

    /** Largest absolute value in the interval. */
    double
    magnitude() const
    {
        return std::max(std::fabs(lo), std::fabs(hi));
    }

    /** True when @p v lies in [lo - pad, hi + pad]. */
    bool
    contains(double v, double pad = 0.0) const
    {
        return v >= lo - pad && v <= hi + pad;
    }

    /** Both endpoints finite. */
    bool
    finite() const
    {
        return isFiniteValue(lo) && isFiniteValue(hi);
    }

    /** Some reachable value cannot be represented as a float. */
    bool
    overflowsFloatRange() const
    {
        return overflowsFloat(lo) || overflowsFloat(hi);
    }

    /** "[lo, hi]" with shortest round-trip formatting. */
    std::string str() const;
};

/** Rendering helper shared by reports ("[−1.5, 2]"). */
std::string intervalStr(const Interval &iv);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_INTERVAL_HPP
