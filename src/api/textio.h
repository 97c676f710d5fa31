#ifndef MAGMA_API_TEXTIO_H_
#define MAGMA_API_TEXTIO_H_

#include <stdexcept>
#include <string>
#include <string_view>

#include "common/textnum.h"

namespace magma::api::textio {

/**
 * Shared key=value text discipline of the declarative artifacts
 * (ProblemSpec / SearchSpec / ExperimentSpec / RunReport): one field per
 * line, doubles printed at full precision so that fromText(toText(x))
 * round-trips bitwise — the same rule Mapping::toText established. The
 * number format pair itself lives in common/textnum.h (also used by
 * mo::ParetoArchive): every number is one whole-token std::from_chars
 * into its field's type, so an out-of-range value throws rather than
 * wrapping.
 */

using common::formatDouble;
using common::parseDouble;
using common::parseNumber;

inline bool
parseBool(std::string_view key, std::string_view value)
{
    if (value == "1" || value == "true")
        return true;
    if (value == "0" || value == "false")
        return false;
    throw std::invalid_argument(std::string(key) + ": bad boolean '" +
                                std::string(value) + "' (0|1|true|false)");
}

/** `s` without leading and trailing spaces, tabs and carriage returns. */
inline std::string_view
trim(std::string_view s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string_view::npos)
        return {};
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/**
 * Call fn(key, value) for every data line of a key=value text block,
 * both as views into `text`. Blank lines and '#' comment lines are
 * skipped; a data line without '=' throws. Keys and values are
 * whitespace-trimmed (values may contain inner spaces — method names
 * and mapping/convergence payloads do).
 */
template <typename Fn>
void
forEachKeyValue(std::string_view text, Fn&& fn)
{
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t nl = text.find('\n', pos);
        size_t end = nl == std::string_view::npos ? text.size() : nl;
        std::string_view line = trim(text.substr(pos, end - pos));
        pos = end + 1;
        if (line.empty() || line[0] == '#')
            continue;
        size_t eq = line.find('=');
        if (eq == std::string_view::npos)
            throw std::invalid_argument("bad spec line (no '='): " +
                                        std::string(line));
        fn(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    }
}

}  // namespace magma::api::textio

#endif  // MAGMA_API_TEXTIO_H_
