#include "analysis/diagnostic.hpp"

#include <iterator>
#include <sstream>

namespace dlis::analysis {

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Info:    return "info";
      case Severity::Warning: return "warning";
      case Severity::Error:   return "error";
    }
    return "?";
}

/*
 * Indexed by the Check enumerator value. The static_assert below pins
 * the table to the Count_ sentinel: adding a Check without naming it
 * here is a compile error, so checkName() can never lag the enum.
 */
static constexpr const char *kCheckNames[] = {
    "bad-shape",
    "channel-mismatch",
    "spatial-underflow",
    "pool-truncation",
    "algo-ignored",
    "bad-row-ptr",
    "unsorted-columns",
    "column-out-of-range",
    "size-mismatch",
    "byte-accounting",
    "bad-ternary-code",
    "bad-ternary-scale",
    "residual-add-mismatch",
    "fold-bn-hazard",
    "empty-network",
    "bad-config",
    "plan-parse",
    "plan-version",
    "plan-host-mismatch",
    "plan-network-mismatch",
    "plan-unknown-layer",
    "duplicate-layer-name",
    "non-finite-weight",
    "error-budget-exceeded",
    "plan-mem-infeasible",
    "node-mem-exceeded",
};

static_assert(std::size(kCheckNames) ==
                  static_cast<size_t>(Check::Count_),
              "kCheckNames must name every Check enumerator");

const char *
checkName(Check c)
{
    const auto i = static_cast<size_t>(c);
    if (i >= std::size(kCheckNames))
        return "?";
    return kCheckNames[i];
}

std::string
Diagnostic::str() const
{
    std::ostringstream oss;
    oss << severityName(severity) << " [" << checkName(check) << "]";
    if (!layer.empty())
        oss << " " << layer;
    oss << ": " << message;
    return oss.str();
}

void
diag(std::vector<Diagnostic> &out, Severity severity, Check check,
     std::string layer, std::string message)
{
    out.push_back(Diagnostic{severity, check, std::move(layer),
                             std::move(message)});
}

} // namespace dlis::analysis
