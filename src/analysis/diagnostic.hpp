/**
 * @file
 * Diagnostics for the static verifier.
 *
 * Every check the verifier performs reports through a Diagnostic: a
 * severity, a stable check code (what rule fired), the layer or
 * structure it fired on, and a human-readable message. Tests assert on
 * check codes, never on message text, so messages can stay descriptive.
 */

#ifndef DLIS_ANALYSIS_DIAGNOSTIC_HPP
#define DLIS_ANALYSIS_DIAGNOSTIC_HPP

#include <string>
#include <vector>

namespace dlis::analysis {

/** How bad a finding is. Only Error fails verification. */
enum class Severity
{
    Info,    //!< worth knowing (e.g. a layer will fall back)
    Warning, //!< suspicious but the run would complete
    Error,   //!< the configuration would panic or corrupt a run
};

/** Human-readable severity name. */
const char *severityName(Severity s);

/** Stable identifier of the rule that produced a diagnostic. */
enum class Check
{
    // Shape / dtype inference
    BadShape,          //!< input rank/geometry a layer cannot accept
    ChannelMismatch,   //!< channel or feature count disagreement
    SpatialUnderflow,  //!< kernel larger than padded input
    PoolTruncation,    //!< pool window does not divide the input

    // Algorithm capability rules
    AlgoIgnored,       //!< requested algorithm silently ignored

    // Sparse-format invariants
    BadRowPtr,         //!< row_ptr not monotone / wrong length
    UnsortedColumns,   //!< column indices not strictly increasing
    ColumnOutOfRange,  //!< column index outside the row width
    SizeMismatch,      //!< array lengths disagree (colIdx vs values)
    ByteAccounting,    //!< storageBytes() disagrees with contents
    BadTernaryCode,    //!< reserved 2-bit code 0b11 present
    BadTernaryScale,   //!< non-finite or negative codebook scale

    // Aliasing / in-place hazards
    ResidualAddMismatch, //!< skip and main path shapes differ
    FoldBnHazard,        //!< conv->BN pair that foldBatchNorms rejects

    // Structure
    EmptyNetwork,   //!< nothing to run
    BadConfig,      //!< option-level problem (threads, input shape)

    // Deployment-plan artifacts (src/tune)
    PlanParse,           //!< plan JSON truncated / malformed
    PlanVersion,         //!< plan_version this build cannot execute
    PlanHostMismatch,    //!< tuned on a different host / CPU / ISA
    PlanNetworkMismatch, //!< tuned for a different network
    PlanUnknownLayer,    //!< plan names a layer the network lacks

    // Structure (addressability)
    DuplicateLayerName, //!< two layers share a name; overrides alias

    // Numerical safety (parameter scan + measured deviation)
    NonFiniteWeight,     //!< NaN/Inf parameter, or BN var + eps <= 0
    ErrorBudgetExceeded, //!< measured deviation above the budget

    // Memory budgets
    PlanMemInfeasible, //!< no per-layer assignment fits the budget
    NodeMemExceeded,   //!< replicas x plan peak above node budget

    Count_, //!< sentinel — keep last; sizes checkName()'s table
};

/** Stable kebab-case name of a check code (used in CLI output). */
const char *checkName(Check c);

/** One finding of the static verifier. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    Check check = Check::BadShape;
    std::string layer;   //!< layer / structure name ("" = whole net)
    std::string message; //!< human-readable description

    /** One-line rendering: "error [bad-shape] conv3: ...". */
    std::string str() const;
};

/** Append a diagnostic to @p out (convenience for check helpers). */
void diag(std::vector<Diagnostic> &out, Severity severity, Check check,
          std::string layer, std::string message);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_DIAGNOSTIC_HPP
