/**
 * @file
 * Flag-value parsing shared by the m3e_cli, m3e_dyn and m3e_serve front
 * ends: a value that does not parse is a usage error, printed to stderr
 * with exit status 2, never an uncaught exception.
 */
#ifndef MAGMA_EXAMPLES_CLI_FLAGS_H_
#define MAGMA_EXAMPLES_CLI_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/textnum.h"

namespace magma::cli {

/** Parse via fn, mapping std::invalid_argument to a usage error. */
template <typename Fn>
auto
parseOrDie(Fn&& fn, const std::string& value)
{
    try {
        return fn(value);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

/**
 * A numeric flag value read whole as one T with the spec files' grammar
 * (common::parseNumber): no sign on an unsigned field, no trailing bytes,
 * nothing outside T's range. The error names the flag.
 */
template <typename T>
T
numberOrDie(const std::string& flag, const std::string& value)
{
    return parseOrDie(
        [&flag](const std::string& v) {
            return common::parseNumber<T>(flag, v);
        },
        value);
}

}  // namespace magma::cli

#endif  // MAGMA_EXAMPLES_CLI_FLAGS_H_
