/**
 * @file
 * Command-line parsing shared by stack_cli and serve_cli. Every option
 * is either "--name <value>" or a bare "--name" switch.
 */

#ifndef DLIS_EXAMPLES_CLI_ARGS_HPP
#define DLIS_EXAMPLES_CLI_ARGS_HPP

#include <cstring>
#include <initializer_list>

#include "core/error.hpp"

namespace dlis::cli {

/** The argument after @p flag, or @p fallback when @p flag is absent. */
inline const char *
argValue(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

/** True when @p flag appears among the arguments. */
inline bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/**
 * Throw FatalError("unknown option '--x'") on the first "--x" argument
 * that is neither one of @p valueFlags (whose next argument is skipped
 * as its value) nor one of @p switches. A misspelt or removed option
 * then fails instead of running the default configuration.
 */
inline void
rejectUnknownOptions(int argc, char **argv,
                     std::initializer_list<const char *> valueFlags,
                     std::initializer_list<const char *> switches)
{
    const auto listed = [](std::initializer_list<const char *> flags,
                           const char *arg) {
        for (const char *flag : flags)
            if (std::strcmp(flag, arg) == 0)
                return true;
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            continue;
        if (listed(valueFlags, argv[i]))
            ++i;
        else if (!listed(switches, argv[i]))
            fatal("unknown option '", argv[i], "'");
    }
}

} // namespace dlis::cli

#endif // DLIS_EXAMPLES_CLI_ARGS_HPP
