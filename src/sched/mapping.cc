#include "sched/mapping.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/textnum.h"

namespace magma::sched {

Mapping
Mapping::random(int group_size, int num_accels, common::Rng& rng)
{
    Mapping m;
    m.accelSel.resize(group_size);
    m.priority.resize(group_size);
    for (int i = 0; i < group_size; ++i) {
        m.accelSel[i] = rng.uniformInt(num_accels);
        m.priority[i] = rng.uniform();
    }
    return m;
}

std::vector<double>
Mapping::toFlat(int num_accels) const
{
    std::vector<double> flat;
    flat.reserve(2 * accelSel.size());
    for (int a : accelSel)
        flat.push_back((a + 0.5) / num_accels);
    for (double p : priority)
        flat.push_back(p);
    return flat;
}

Mapping
Mapping::fromFlat(const std::vector<double>& flat, int num_accels)
{
    assert(flat.size() % 2 == 0);
    int g = static_cast<int>(flat.size() / 2);
    Mapping m;
    m.accelSel.resize(g);
    m.priority.resize(g);
    for (int i = 0; i < g; ++i) {
        double v = std::clamp(flat[i], 0.0, std::nextafter(1.0, 0.0));
        m.accelSel[i] = std::min(static_cast<int>(v * num_accels),
                                 num_accels - 1);
        m.priority[i] = std::clamp(flat[g + i], 0.0,
                                   std::nextafter(1.0, 0.0));
    }
    return m;
}

std::string
Mapping::toText() const
{
    std::ostringstream os;
    os << size();
    for (int a : accelSel)
        os << ' ' << a;
    char buf[32];
    for (double p : priority) {
        std::snprintf(buf, sizeof(buf), "%.17g", p);
        os << ' ' << buf;
    }
    return os.str();
}

namespace {

/** Cut the next blank-separated token off the front of `rest`; empty
 * when only blanks remain. */
std::string_view
nextToken(std::string_view& rest)
{
    constexpr std::string_view kBlanks = " \t\n\v\f\r";
    const size_t begin = std::min(rest.find_first_not_of(kBlanks),
                                  rest.size());
    const size_t end = std::min(rest.find_first_of(kBlanks, begin),
                                rest.size());
    std::string_view token = rest.substr(begin, end - begin);
    rest.remove_prefix(end);
    return token;
}

}  // namespace

Mapping
Mapping::fromText(std::string_view line)
{
    std::string_view rest = line;
    const int g = common::parseNumber<int>("Mapping::fromText: group size",
                                           nextToken(rest));
    if (g < 0)
        throw std::invalid_argument("Mapping::fromText: bad group size");
    // Count the genes before sizing anything, so a huge declared size
    // fails here instead of allocating for genes that are not there.
    int64_t genes = 0;
    for (std::string_view scan = rest; !nextToken(scan).empty();)
        ++genes;
    if (genes != 2 * static_cast<int64_t>(g))
        throw std::invalid_argument(
            "Mapping::fromText: group size " + std::to_string(g) +
            " needs " + std::to_string(2 * static_cast<int64_t>(g)) +
            " genes, found " + std::to_string(genes));
    Mapping m;
    m.accelSel.resize(g);
    m.priority.resize(g);
    for (int& a : m.accelSel) {
        a = common::parseNumber<int>("Mapping::fromText: accel gene",
                                     nextToken(rest));
        if (a < 0)
            throw std::invalid_argument("Mapping::fromText: bad accel gene");
    }
    for (double& p : m.priority) {
        p = common::parseNumber<double>("Mapping::fromText: priority",
                                        nextToken(rest));
        if (!std::isfinite(p))
            throw std::invalid_argument("Mapping::fromText: bad priority");
    }
    return m;
}

DecodedMapping
decode(const Mapping& m, int num_accels)
{
    DecodedMapping d;
    d.queues.assign(num_accels, {});
    for (int j = 0; j < m.size(); ++j) {
        assert(m.accelSel[j] >= 0 && m.accelSel[j] < num_accels);
        d.queues[m.accelSel[j]].push_back(j);
    }
    for (auto& q : d.queues) {
        std::stable_sort(q.begin(), q.end(), [&m](int a, int b) {
            return m.priority[a] < m.priority[b];
        });
    }
    return d;
}

}  // namespace magma::sched
