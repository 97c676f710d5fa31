#ifndef MAGMA_COMMON_TEXTNUM_H_
#define MAGMA_COMMON_TEXTNUM_H_

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace magma::common {

/**
 * The repo-wide bitwise text discipline for numbers, shared by every
 * persistent artifact (Mapping, specs/reports in api/textio.h, the
 * serve-layer MappingStore, mo::ParetoArchive, dyn::WorkloadTrace):
 * print doubles with "%.17g" — the shortest form that parses back to
 * the identical bit pattern. The key=value readers (specs, reports,
 * traces, Pareto points) parse every number as one whole-token
 * std::from_chars into the field's own type. One definition so a
 * precision or grammar fix lands everywhere at once.
 */
inline std::string
formatDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Parse `value` whole as one T (an integer type or double); `what`
 * names the field in errors. The grammar is std::from_chars': decimal
 * only, an optional leading '-' and nothing else around the digits, so
 * leading whitespace, a '+' sign, a hex float, a '-' on an unsigned
 * field and trailing bytes all throw std::invalid_argument, as does a
 * value outside T's range (including a double that overflows to
 * infinity or underflows to zero). "inf" and "nan" parse as doubles.
 */
template <typename T>
T
parseNumber(std::string_view what, std::string_view value)
{
    static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
    T v{};
    const char* last = value.data() + value.size();
    // Base 10 for integers, chars_format::general for doubles.
    const std::from_chars_result r = std::from_chars(value.data(), last, v);
    if (r.ec == std::errc::result_out_of_range && r.ptr == last)
        throw std::invalid_argument(std::string(what) +
                                    ": value out of range '" +
                                    std::string(value) + "'");
    if (r.ec != std::errc() || r.ptr != last) {
        const char* kind = !std::is_integral_v<T>  ? "number"
                           : std::is_signed_v<T> ? "integer"
                                                 : "unsigned integer";
        throw std::invalid_argument(std::string(what) + ": bad " + kind +
                                    " '" + std::string(value) + "'");
    }
    return v;
}

/** Parse a formatDouble() token; `what` names the field in errors. */
inline double
parseDouble(std::string_view what, std::string_view value)
{
    return parseNumber<double>(what, value);
}

}  // namespace magma::common

#endif  // MAGMA_COMMON_TEXTNUM_H_
