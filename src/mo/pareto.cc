#include "mo/pareto.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/textnum.h"

namespace magma::mo {
namespace {

using common::formatDouble;
using common::parseDouble;

constexpr const char* kFrontHeader = "magma-pareto-front v1";

std::string
trimBlanks(const std::string& s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

}  // namespace

// ------------------------------------------------------------ MoPoint ---

std::string
MoPoint::toText() const
{
    std::string out;
    for (size_t i = 0; i < objs.size(); ++i) {
        if (i)
            out += ' ';
        out += formatDouble(objs[i]);
    }
    out += " ; ";
    out += m.toText();
    return out;
}

MoPoint
MoPoint::fromText(const std::string& line)
{
    size_t semi = line.find(';');
    if (semi == std::string::npos)
        throw std::invalid_argument("MoPoint: missing ';' in '" + line +
                                    "'");
    MoPoint p;
    std::istringstream vals(line.substr(0, semi));
    std::string tok;
    while (vals >> tok)
        p.objs.push_back(parseDouble("MoPoint objective", tok));
    p.m = sched::Mapping::fromText(trimBlanks(line.substr(semi + 1)));
    return p;
}

// ---------------------------------------------------------- dominance ---

bool
dominates(const ObjectiveVector& a, const ObjectiveVector& b)
{
    bool strict = false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] < b[i])
            return false;
        if (a[i] > b[i])
            strict = true;
    }
    return strict;
}

bool
weaklyDominates(const ObjectiveVector& a, const ObjectiveVector& b)
{
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i] < b[i])
            return false;
    return true;
}

std::vector<int>
nonDominatedRanks(const std::vector<ObjectiveVector>& objs)
{
    const int n = static_cast<int>(objs.size());
    std::vector<int> rank(n, -1);
    std::vector<int> dom_count(n, 0);          // #points dominating i
    std::vector<std::vector<int>> dominated(n);  // points i dominates
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            if (dominates(objs[i], objs[j])) {
                dominated[i].push_back(j);
                ++dom_count[j];
            } else if (dominates(objs[j], objs[i])) {
                dominated[j].push_back(i);
                ++dom_count[i];
            }
        }
    }
    std::vector<int> current;
    for (int i = 0; i < n; ++i)
        if (dom_count[i] == 0) {
            rank[i] = 0;
            current.push_back(i);
        }
    int level = 0;
    while (!current.empty()) {
        std::vector<int> next;
        for (int i : current)
            for (int j : dominated[i])
                if (--dom_count[j] == 0) {
                    rank[j] = level + 1;
                    next.push_back(j);
                }
        ++level;
        current = std::move(next);
    }
    return rank;
}

std::vector<double>
crowdingDistances(const std::vector<ObjectiveVector>& objs,
                  const std::vector<int>& front)
{
    const size_t n = front.size();
    std::vector<double> crowd(n, 0.0);
    if (n == 0)
        return crowd;
    const size_t arity = objs[front[0]].size();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<size_t> order(n);
    for (size_t d = 0; d < arity; ++d) {
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        // Stable index tie-break keeps the result deterministic.
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            double va = objs[front[a]][d], vb = objs[front[b]][d];
            return va != vb ? va < vb : a < b;
        });
        double lo = objs[front[order[0]]][d];
        double hi = objs[front[order[n - 1]]][d];
        crowd[order[0]] = kInf;
        crowd[order[n - 1]] = kInf;
        if (hi <= lo)
            continue;  // degenerate objective: no interior spread
        for (size_t i = 1; i + 1 < n; ++i) {
            if (crowd[order[i]] == kInf)
                continue;
            crowd[order[i]] += (objs[front[order[i + 1]]][d] -
                                objs[front[order[i - 1]]][d]) /
                               (hi - lo);
        }
    }
    return crowd;
}

// ------------------------------------------------------ ParetoArchive ---

bool
ParetoArchive::insert(MoPoint p)
{
    if (p.objs.size() != objectives_.size())
        throw std::invalid_argument(
            "ParetoArchive::insert: arity mismatch (point " +
            std::to_string(p.objs.size()) + ", archive " +
            std::to_string(objectives_.size()) + ")");
    for (const MoPoint& q : points_)
        if (weaklyDominates(q.objs, p.objs))
            return false;  // dominated or duplicate
    std::erase_if(points_, [&](const MoPoint& q) {
        return dominates(p.objs, q.objs);
    });
    points_.push_back(std::move(p));
    if (capacity_ > 0 && points_.size() > capacity_) {
        std::vector<ObjectiveVector> objs;
        std::vector<int> all;
        objs.reserve(points_.size());
        for (size_t i = 0; i < points_.size(); ++i) {
            objs.push_back(points_[i].objs);
            all.push_back(static_cast<int>(i));
        }
        std::vector<double> crowd = crowdingDistances(objs, all);
        // Evict the least-crowded member; ties drop the youngest so
        // long-standing spread survives.
        size_t victim = 0;
        for (size_t i = 1; i < points_.size(); ++i)
            if (crowd[i] <= crowd[victim])
                victim = i;
        bool evicted_self = victim + 1 == points_.size();
        points_.erase(points_.begin() + static_cast<ptrdiff_t>(victim));
        if (evicted_self)
            return false;
    }
    return true;
}

std::vector<sched::Mapping>
ParetoArchive::seedMappings() const
{
    std::vector<sched::Mapping> seeds;
    seeds.reserve(points_.size());
    for (const MoPoint& p : points_)
        seeds.push_back(p.m);
    return seeds;
}

namespace {

/**
 * Exact hypervolume by recursive slicing on the last of `d` objectives.
 * `pts` hold values strictly greater than `ref` in every objective.
 * Exponential in arity in the worst case — fine for the small fronts
 * the archive holds; 2-D gets the closed-form sweep.
 */
double
hvRecursive(std::vector<const ObjectiveVector*> pts,
            const ObjectiveVector& ref, size_t d)
{
    if (pts.empty())
        return 0.0;
    if (d == 1) {
        double best = 0.0;
        for (const ObjectiveVector* p : pts)
            best = std::max(best, (*p)[0] - ref[0]);
        return best;
    }
    std::sort(pts.begin(), pts.end(),
              [d](const ObjectiveVector* a, const ObjectiveVector* b) {
                  return (*a)[d - 1] > (*b)[d - 1];
              });
    if (d == 2) {
        // Sweep down obj1; each step adds a rectangle up to the best
        // obj0 seen so far.
        double total = 0.0, best0 = 0.0;
        for (size_t i = 0; i < pts.size(); ++i) {
            double z_hi = (*pts[i])[1];
            double z_lo = i + 1 < pts.size() ? (*pts[i + 1])[1] : ref[1];
            best0 = std::max(best0, (*pts[i])[0] - ref[0]);
            if (z_hi > z_lo)
                total += best0 * (z_hi - z_lo);
        }
        return total;
    }
    double total = 0.0;
    std::vector<const ObjectiveVector*> prefix;
    prefix.reserve(pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
        prefix.push_back(pts[i]);
        double z_hi = (*pts[i])[d - 1];
        double z_lo = i + 1 < pts.size() ? (*pts[i + 1])[d - 1] : ref[d - 1];
        if (z_hi > z_lo)
            total += hvRecursive(prefix, ref, d - 1) * (z_hi - z_lo);
    }
    return total;
}

}  // namespace

double
ParetoArchive::hypervolume(const ObjectiveVector& ref) const
{
    if (ref.size() != objectives_.size())
        throw std::invalid_argument(
            "ParetoArchive::hypervolume: reference arity mismatch");
    std::vector<const ObjectiveVector*> pts;
    for (const MoPoint& p : points_) {
        bool inside = true;
        for (size_t d = 0; d < ref.size(); ++d)
            if (p.objs[d] <= ref[d]) {
                inside = false;
                break;
            }
        if (inside)
            pts.push_back(&p.objs);
    }
    return hvRecursive(std::move(pts), ref, ref.size());
}

double
ParetoArchive::epsilonIndicator(const std::vector<ObjectiveVector>& a,
                                const std::vector<ObjectiveVector>& b)
{
    if (b.empty())
        return 0.0;
    if (a.empty())
        return std::numeric_limits<double>::infinity();
    double eps = -std::numeric_limits<double>::infinity();
    for (const ObjectiveVector& bv : b) {
        double best = std::numeric_limits<double>::infinity();
        for (const ObjectiveVector& av : a) {
            double worst = -std::numeric_limits<double>::infinity();
            for (size_t d = 0; d < bv.size(); ++d)
                worst = std::max(worst, bv[d] - av[d]);
            best = std::min(best, worst);
        }
        eps = std::max(eps, best);
    }
    return eps;
}

std::string
ParetoArchive::toText() const
{
    std::ostringstream os;
    os << kFrontHeader << '\n'
       << "objectives=" << sched::objectiveListName(objectives_) << '\n'
       << "capacity=" << capacity_ << '\n';
    for (const MoPoint& p : points_)
        os << "point=" << p.toText() << '\n';
    return os.str();
}

ParetoArchive
ParetoArchive::fromText(const std::string& text)
{
    ParetoArchive arch;
    size_t pos = 0;
    bool saw_header = false;
    while (pos <= text.size()) {
        size_t nl = text.find('\n', pos);
        std::string line = trimBlanks(text.substr(
            pos, (nl == std::string::npos ? text.size() : nl) - pos));
        pos = (nl == std::string::npos) ? text.size() + 1 : nl + 1;
        if (line.empty() || line[0] == '#')
            continue;
        if (!saw_header) {
            if (line != kFrontHeader)
                throw std::invalid_argument(
                    "ParetoArchive::fromText: missing '" +
                    std::string(kFrontHeader) + "' header");
            saw_header = true;
            continue;
        }
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument(
                "ParetoArchive::fromText: bad line '" + line + "'");
        std::string key = trimBlanks(line.substr(0, eq));
        std::string value = trimBlanks(line.substr(eq + 1));
        if (key == "objectives")
            arch.objectives_ = sched::objectiveListFromName(value);
        else if (key == "capacity")
            arch.capacity_ = common::parseNumber<size_t>(
                "ParetoArchive::fromText: capacity", value);
        else if (key == "point") {
            MoPoint p = MoPoint::fromText(value);
            if (p.objs.size() != arch.objectives_.size())
                throw std::invalid_argument(
                    "ParetoArchive::fromText: point arity mismatch");
            // Trust the writer's invariant: members are mutually
            // non-dominated, so append verbatim for an exact round-trip.
            arch.points_.push_back(std::move(p));
        } else {
            throw std::invalid_argument(
                "ParetoArchive::fromText: unknown key '" + key + "'");
        }
    }
    if (!saw_header)
        throw std::invalid_argument(
            "ParetoArchive::fromText: empty input");
    return arch;
}

void
ParetoArchive::save(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write Pareto front '" + path +
                                 "'");
    out << toText();
    if (!out)
        throw std::runtime_error("short write on Pareto front '" + path +
                                 "'");
}

ParetoArchive
ParetoArchive::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read Pareto front '" + path +
                                 "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromText(buf.str());
}

}  // namespace magma::mo
