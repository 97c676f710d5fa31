/**
 * @file
 * magma_lint — the project's custom invariant checker: a standalone,
 * dependency-free C++ binary enforcing the determinism rules that
 * generic tools (clang-tidy, sanitizers) cannot see. The repo's core
 * claim is bitwise-identical results at any thread count; these checks
 * gate the source-level habits that claim rests on.
 *
 * Checks (kebab-case ids, used in allowlist tags and self-tests):
 *
 *   nondet          No nondeterminism source outside sanctioned files:
 *                   std::rand/srand, std::random_device, wall-clock
 *                   seeding (time(...), system_clock). Every RNG must be
 *                   a seeded common::Rng / std::mt19937 so reruns are
 *                   bitwise reproducible.
 *
 *   unordered-iter  No iteration over a std::unordered_map/unordered_set
 *                   declared in the same file: hash-order is
 *                   load-factor- and libstdc++-version-dependent, so any
 *                   loop over one can leak nondeterministic order into
 *                   stats lines, serialized text or search results.
 *                   Sites that are provably order-independent carry an
 *                   allowlist tag stating why.
 *
 *   double-format   %.17g discipline: in any file participating in a
 *                   round-trip text format (it mentions fromText), every
 *                   printf-family float conversion must be %.17g — the
 *                   shortest format guaranteed to round-trip an IEEE
 *                   double exactly. Display-only lines carry a tag.
 *
 *   span-payload    Every span site — an obs::Scope constructed with an
 *                   index argument — carries a "span payload:" comment
 *                   (same line or within the three lines above) naming
 *                   what its i/a/b slots mean, mirroring the slot table
 *                   on obs::Scope in src/obs/scope.h; payload-free spans
 *                   carry an allow tag instead. Profile-only scopes
 *                   (name argument alone) have no slots and are skipped.
 *                   --check-spans runs just this check over the roots.
 *
 *   docs-module-map (--check-docs) Every immediate subdirectory of src/
 *                   is named (as "src/<name>") in both the README module
 *                   map and docs/architecture.md — a module cannot be
 *                   added without documenting where it sits.
 *
 *   docs-link       (--check-docs) Every relative markdown link in
 *                   README.md and the markdown files under docs/
 *                   resolves to an existing file, so the docs index
 *                   never rots.
 *
 *   docs-format     (--check-docs) Every versioned text-format header
 *                   ("magma-<name> v<N>") appearing in a src/ string
 *                   literal is documented by name in docs/formats.md —
 *                   on-disk formats are contracts, not implementation
 *                   details.
 *
 * Allowlist tag syntax (same line, or a tag line covering the next
 * statement through its terminating ';' or '{'):
 *
 *   // magma-lint: allow(<check-id>): <non-empty justification>
 *
 * A tag with an empty justification is itself a finding: the audit trail
 * is the point.
 *
 * Usage:
 *   magma_lint [--root DIR]... [FILE]...       lint files / trees
 *   magma_lint --self-test FIXTURE_DIR         verify the checker itself
 *   magma_lint --check-docs --root DIR         docs/source consistency
 *   magma_lint --check-spans --root DIR        span payload comments
 *
 * Exit status: 0 clean, 1 findings, 2 usage/internal error.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
    std::string file;
    int line = 0;
    std::string check;
    std::string message;
};

struct Options {
    std::vector<std::string> roots;
    std::vector<std::string> files;
    bool checkDocs = false;
    bool checkSpans = false;
    std::string selfTestDir;
};

// ------------------------------------------------------------ helpers ---

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
isSourceFile(const std::string& path)
{
    return endsWith(path, ".cc") || endsWith(path, ".cpp") ||
           endsWith(path, ".h") || endsWith(path, ".hpp");
}

/** Identifier characters (the token alphabet of the scanners below). */
bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** True when `token` occurs in `line` with no identifier char on either
 * side (word-boundary match, so `rand(` does not fire on `operand(`). */
bool
containsToken(const std::string& line, const std::string& token)
{
    size_t pos = 0;
    while ((pos = line.find(token, pos)) != std::string::npos) {
        bool left_ok =
            pos == 0 || !isIdentChar(line[pos - 1]);
        size_t end = pos + token.size();
        bool right_ok = end >= line.size() || !isIdentChar(line[end]) ||
                        !isIdentChar(token.back());
        if (left_ok && right_ok)
            return true;
        pos += 1;
    }
    return false;
}

/**
 * One file's lines with comment/string classification good enough for
 * the token scans: per-line text with // comments kept separately (tags
 * live there) and string-literal contents replaced by spaces except for
 * the double-format check, which scans the literals themselves.
 */
struct FileText {
    std::string path;
    std::vector<std::string> raw;      // original lines
    std::vector<std::string> code;     // literals blanked, comments cut
    std::vector<std::string> comment;  // the // comment part per line
    std::vector<std::string> literals; // concatenated string literals
};

FileText
readFile(const std::string& path)
{
    FileText ft;
    ft.path = path;
    std::ifstream is(path);
    std::string line;
    bool in_block_comment = false;
    while (std::getline(is, line)) {
        ft.raw.push_back(line);
        std::string code, comment, lits;
        bool in_string = false, in_char = false;
        for (size_t i = 0; i < line.size(); ++i) {
            char c = line[i];
            if (in_block_comment) {
                if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
                    in_block_comment = false;
                    ++i;
                }
                code += ' ';
                continue;
            }
            if (in_string) {
                if (c == '\\' && i + 1 < line.size()) {
                    lits += c;
                    lits += line[++i];
                    code += "  ";
                    continue;
                }
                if (c == '"')
                    in_string = false;
                else
                    lits += c;
                code += ' ';
                continue;
            }
            if (in_char) {
                if (c == '\\' && i + 1 < line.size()) {
                    code += "  ";
                    ++i;
                    continue;
                }
                if (c == '\'')
                    in_char = false;
                code += ' ';
                continue;
            }
            if (c == '"') {
                in_string = true;
                code += ' ';
                continue;
            }
            if (c == '\'') {
                in_char = true;
                code += ' ';
                continue;
            }
            if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
                comment = line.substr(i + 2);
                break;
            }
            if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
                in_block_comment = true;
                code += ' ';
                ++i;
                continue;
            }
            code += c;
        }
        ft.code.push_back(std::move(code));
        ft.comment.push_back(std::move(comment));
        ft.literals.push_back(std::move(lits));
    }
    return ft;
}

// ----------------------------------------------------- allowlist tags ---

/** Parsed "magma-lint: allow(check): justification" out of a comment. */
struct Tag {
    std::string check;
    bool justified = false;
};

std::vector<Tag>
tagsIn(const std::string& comment)
{
    std::vector<Tag> tags;
    const std::string marker = "magma-lint:";
    size_t pos = comment.find(marker);
    if (pos == std::string::npos)
        return tags;
    std::string rest = comment.substr(pos + marker.size());
    const std::string allow = "allow(";
    size_t a = 0;
    while ((a = rest.find(allow, a)) != std::string::npos) {
        size_t open = a + allow.size();
        size_t close = rest.find(')', open);
        if (close == std::string::npos)
            break;
        Tag t;
        t.check = rest.substr(open, close - open);
        // Justification: non-whitespace text after "):".
        size_t j = close + 1;
        if (j < rest.size() && rest[j] == ':')
            ++j;
        while (j < rest.size() &&
               std::isspace(static_cast<unsigned char>(rest[j])))
            ++j;
        t.justified = j < rest.size();
        tags.push_back(t);
        a = close;
    }
    return tags;
}

/**
 * Per-file allow map: allowed[check] is the set of 0-based lines the tag
 * covers. A same-line tag covers its line; a tag-only line covers the
 * following statement through the first line containing ';' or '{'
 * (inclusive), so multi-line calls need one tag, not one per line.
 */
struct AllowMap {
    std::vector<std::vector<std::string>> allowedByLine;
    std::vector<Finding> tagFindings;

    bool allows(const std::string& check, size_t line) const
    {
        if (line >= allowedByLine.size())
            return false;
        const auto& v = allowedByLine[line];
        return std::find(v.begin(), v.end(), check) != v.end();
    }
};

AllowMap
buildAllowMap(const FileText& ft)
{
    AllowMap am;
    am.allowedByLine.resize(ft.raw.size());
    for (size_t i = 0; i < ft.raw.size(); ++i) {
        for (const Tag& t : tagsIn(ft.comment[i])) {
            if (!t.justified) {
                am.tagFindings.push_back(
                    {ft.path, static_cast<int>(i + 1), t.check,
                     "allow(" + t.check +
                         ") tag without a justification — write "
                         "'allow(" + t.check + "): <why>'"});
                continue;
            }
            am.allowedByLine[i].push_back(t.check);
            // A tag on an otherwise empty code line covers the next
            // statement.
            bool tag_only =
                ft.code[i].find_first_not_of(" \t") == std::string::npos;
            if (!tag_only)
                continue;
            for (size_t j = i + 1; j < ft.raw.size(); ++j) {
                am.allowedByLine[j].push_back(t.check);
                if (ft.code[j].find(';') != std::string::npos ||
                    ft.code[j].find('{') != std::string::npos)
                    break;
            }
        }
    }
    return am;
}

// ------------------------------------------------------ check: nondet ---

void
checkNondet(const FileText& ft, const AllowMap& am,
            std::vector<Finding>& out)
{
    struct Pattern {
        const char* token;
        const char* why;
    };
    static const Pattern kPatterns[] = {
        {"std::rand", "unseeded C RNG breaks bitwise reproducibility"},
        {"std::srand", "global C RNG state is shared across threads"},
        {"srand", "global C RNG state is shared across threads"},
        {"random_device", "hardware entropy makes reruns diverge"},
        {"std::time", "wall-clock value is a nondeterminism source"},
        {"time(nullptr)", "wall-clock seed makes reruns diverge"},
        {"time(NULL)", "wall-clock seed makes reruns diverge"},
        {"system_clock", "wall clock; use steady_clock for durations, "
                         "never for seeds or results"},
    };
    for (size_t i = 0; i < ft.code.size(); ++i) {
        for (const Pattern& p : kPatterns) {
            if (!containsToken(ft.code[i], p.token))
                continue;
            if (am.allows("nondet", i))
                break;
            out.push_back({ft.path, static_cast<int>(i + 1), "nondet",
                           std::string(p.token) + ": " + p.why});
            break;  // one finding per line is enough
        }
    }
}

// --------------------------------------------- check: unordered-iter ---

/**
 * Names declared as std::unordered_map/unordered_set in this file
 * (locals and members alike): the token right after the closing '>' of
 * the template argument list.
 */
std::vector<std::string>
unorderedNames(const FileText& ft)
{
    std::vector<std::string> names;
    for (const std::string& line : ft.code) {
        for (const char* kw : {"unordered_map", "unordered_set"}) {
            size_t pos = line.find(kw);
            if (pos == std::string::npos)
                continue;
            size_t i = pos + std::string(kw).size();
            if (i >= line.size() || line[i] != '<')
                continue;
            int depth = 0;
            for (; i < line.size(); ++i) {
                if (line[i] == '<')
                    ++depth;
                else if (line[i] == '>' && --depth == 0) {
                    ++i;
                    break;
                }
            }
            // Multi-line template args: the declaration name is on a
            // later line; handled by the generic begin()/range scan
            // matching member names too, so skip quietly here.
            while (i < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[i])))
                ++i;
            size_t start = i;
            while (i < line.size() && isIdentChar(line[i]))
                ++i;
            if (i > start)
                names.push_back(line.substr(start, i - start));
        }
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

/** Last identifier of an expression like `shards_[s].map` -> "map". */
std::string
trailingIdent(const std::string& expr)
{
    size_t end = expr.size();
    while (end > 0 &&
           std::isspace(static_cast<unsigned char>(expr[end - 1])))
        --end;
    size_t start = end;
    while (start > 0 && isIdentChar(expr[start - 1]))
        --start;
    return expr.substr(start, end - start);
}

void
checkUnorderedIter(const FileText& ft, const AllowMap& am,
                   std::vector<Finding>& out)
{
    std::vector<std::string> names = unorderedNames(ft);
    if (names.empty())
        return;
    auto isUnordered = [&](const std::string& ident) {
        return !ident.empty() &&
               std::binary_search(names.begin(), names.end(), ident);
    };
    for (size_t i = 0; i < ft.code.size(); ++i) {
        const std::string& line = ft.code[i];
        std::string flagged;

        // Range-for over an unordered container: `for (... : expr)`.
        size_t forPos = line.find("for ");
        if (forPos == std::string::npos)
            forPos = line.find("for(");
        if (forPos != std::string::npos) {
            size_t colon = line.find(" : ", forPos);
            if (colon != std::string::npos) {
                size_t close = line.find_last_of(')');
                if (close != std::string::npos && close > colon) {
                    std::string expr =
                        line.substr(colon + 3, close - colon - 3);
                    std::string ident = trailingIdent(expr);
                    if (isUnordered(ident))
                        flagged = "range-for over unordered container '" +
                                  ident + "'";
                }
            }
        }

        // Iterator walk: `name.begin()` (find/emplace lookups are fine).
        if (flagged.empty()) {
            for (const std::string& n : names) {
                if (containsToken(line, n + ".begin") ||
                    containsToken(line, n + ".cbegin")) {
                    flagged = "iterator walk over unordered container '" +
                              n + "'";
                    break;
                }
            }
        }

        if (flagged.empty() || am.allows("unordered-iter", i))
            continue;
        out.push_back(
            {ft.path, static_cast<int>(i + 1), "unordered-iter",
             flagged + " — hash order is nondeterministic; sort first "
                       "or tag the site with why order cannot escape"});
    }
}

// --------------------------------------------- check: double-format ---

void
checkDoubleFormat(const FileText& ft, const AllowMap& am,
                  std::vector<Finding>& out)
{
    // Only files participating in a round-trip text format: a format
    // that is parsed back (fromText) must write doubles losslessly.
    bool roundTripFile = false;
    for (const std::string& line : ft.code)
        if (line.find("fromText") != std::string::npos) {
            roundTripFile = true;
            break;
        }
    if (!roundTripFile)
        return;

    for (size_t i = 0; i < ft.literals.size(); ++i) {
        const std::string& lit = ft.literals[i];
        size_t pos = 0;
        while ((pos = lit.find('%', pos)) != std::string::npos) {
            size_t j = pos + 1;
            if (j < lit.size() && lit[j] == '%') {  // escaped %%
                pos = j + 1;
                continue;
            }
            // Parse flags/width/precision, then the conversion char.
            std::string spec = "%";
            while (j < lit.size() &&
                   (std::isdigit(static_cast<unsigned char>(lit[j])) ||
                    lit[j] == '.' || lit[j] == '-' || lit[j] == '+' ||
                    lit[j] == ' ' || lit[j] == '#' || lit[j] == '*' ||
                    lit[j] == 'l' || lit[j] == 'L' || lit[j] == 'h' ||
                    lit[j] == 'z'))
                spec += lit[j++];
            if (j < lit.size())
                spec += lit[j];
            char conv = j < lit.size() ? lit[j] : '\0';
            pos = j + 1;
            if (conv != 'f' && conv != 'F' && conv != 'e' && conv != 'E' &&
                conv != 'g' && conv != 'G' && conv != 'a' && conv != 'A')
                continue;
            if (spec == "%.17g")
                continue;
            // An 'l' length modifier marks a scanf-family INPUT
            // conversion (%lf reads a double); output never needs it.
            if (spec.find('l') != std::string::npos)
                continue;
            if (am.allows("double-format", i))
                continue;
            out.push_back(
                {ft.path, static_cast<int>(i + 1), "double-format",
                 "float conversion '" + spec +
                     "' in a round-trip file — use %.17g (lossless for "
                     "IEEE doubles) or tag display-only lines"});
        }
    }
}

// ----------------------------------------------- check: span-payload ---

/**
 * True when line `i` declares an obs::Scope built with more than its
 * name argument — a span site. The argument list may run on over the
 * next three lines; only a comma at its top level counts.
 */
bool
constructsSpanScope(const FileText& ft, size_t i)
{
    const std::string token = "obs::Scope";
    std::string rest = ft.code[i].substr(ft.code[i].find(token) +
                                         token.size());
    for (size_t l = i + 1; l < ft.code.size() && l <= i + 3; ++l)
        rest += " " + ft.code[l];
    size_t k = 0;
    auto skipSpace = [&] {
        while (k < rest.size() &&
               std::isspace(static_cast<unsigned char>(rest[k])))
            ++k;
    };
    skipSpace();
    size_t name = k;
    while (k < rest.size() && isIdentChar(rest[k]))
        ++k;
    skipSpace();
    if (k == name || k >= rest.size() || (rest[k] != '(' && rest[k] != '{'))
        return false;  // a type use, not a named construction
    int depth = 0;
    for (; k < rest.size(); ++k) {
        char c = rest[k];
        if (c == '(' || c == '{' || c == '[')
            ++depth;
        else if ((c == ')' || c == '}' || c == ']') && --depth == 0)
            return false;
        else if (c == ',' && depth == 1)
            return true;
    }
    return false;
}

/**
 * Every span site (see constructsSpanScope) documents its payload slots:
 * a "span payload:" comment on the same line or within the three lines
 * above (mirroring the slot table on obs::Scope in src/obs/scope.h), or
 * a justified allow(span-payload) tag for spans that fill no slots.
 * Returns the number of sites inspected (the --check-spans summary).
 */
int
checkSpanPayload(const FileText& ft, const AllowMap& am,
                 std::vector<Finding>& out)
{
    int sites = 0;
    const std::string doc = "span payload:";
    for (size_t i = 0; i < ft.code.size(); ++i) {
        if (!containsToken(ft.code[i], "obs::Scope") ||
            !constructsSpanScope(ft, i))
            continue;
        ++sites;
        bool documented = false;
        for (size_t back = 0; back <= 3 && back <= i; ++back) {
            if (ft.comment[i - back].find(doc) != std::string::npos) {
                documented = true;
                break;
            }
        }
        if (documented || am.allows("span-payload", i))
            continue;
        out.push_back(
            {ft.path, static_cast<int>(i + 1), "span-payload",
             "obs::Scope span site without a \"span payload:\" comment "
             "naming its i/a/b slots (see src/obs/scope.h) — document "
             "the payload or tag payload-free spans with "
             "allow(span-payload)"});
    }
    return sites;
}

// ------------------------------------------------ check: docs gates ---

std::string
slurpFile(const fs::path& p)
{
    std::ifstream is(p);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/**
 * Versioned format headers ("magma-<kebab-name> v<digits>") in the
 * file's string literals. Returns the name part only ("magma-store-log")
 * with the first line it appears on.
 */
std::vector<std::pair<std::string, int>>
formatHeadersIn(const FileText& ft)
{
    std::vector<std::pair<std::string, int>> out;
    for (size_t i = 0; i < ft.literals.size(); ++i) {
        const std::string& lit = ft.literals[i];
        size_t pos = 0;
        while ((pos = lit.find("magma-", pos)) != std::string::npos) {
            size_t j = pos + 6;
            while (j < lit.size() &&
                   (std::islower(static_cast<unsigned char>(lit[j])) ||
                    std::isdigit(static_cast<unsigned char>(lit[j])) ||
                    lit[j] == '-'))
                ++j;
            // Only a versioned header counts: "<name> v<digit>".
            if (j + 2 < lit.size() && lit[j] == ' ' && lit[j + 1] == 'v' &&
                std::isdigit(static_cast<unsigned char>(lit[j + 2])))
                out.emplace_back(lit.substr(pos, j - pos),
                                 static_cast<int>(i + 1));
            pos = j;
        }
    }
    return out;
}

/**
 * Documentation consistency over one repo root: module map completeness
 * (docs-module-map), markdown link resolution (docs-link) and versioned
 * text-format coverage (docs-format). Returns sites checked.
 */
int
checkDocs(const std::string& root, std::vector<Finding>& out)
{
    const fs::path r(root);
    const fs::path readme = r / "README.md";
    const fs::path arch = r / "docs" / "architecture.md";
    const fs::path formats = r / "docs" / "formats.md";
    int checked = 0;

    auto require = [&](const fs::path& p) {
        if (fs::exists(p))
            return true;
        out.push_back({p.string(), 1, "docs-module-map",
                       "required documentation file does not exist"});
        return false;
    };
    const bool have_readme = require(readme);
    const bool have_arch = require(arch);
    const bool have_formats = require(formats);
    const std::string readme_text = have_readme ? slurpFile(readme) : "";
    const std::string arch_text = have_arch ? slurpFile(arch) : "";
    const std::string formats_text = have_formats ? slurpFile(formats) : "";

    // Module map: every src/ module is placed in README and architecture.
    const fs::path srcdir = r / "src";
    if (fs::exists(srcdir)) {
        std::vector<std::string> modules;
        for (const auto& e : fs::directory_iterator(srcdir))
            if (e.is_directory())
                modules.push_back(e.path().filename().string());
        std::sort(modules.begin(), modules.end());
        for (const std::string& m : modules) {
            ++checked;
            const std::string token = "src/" + m;
            if (have_readme &&
                readme_text.find(token) == std::string::npos)
                out.push_back({readme.string(), 1, "docs-module-map",
                               "module '" + token +
                                   "' is missing from the README "
                                   "module map"});
            if (have_arch && arch_text.find(token) == std::string::npos)
                out.push_back({arch.string(), 1, "docs-module-map",
                               "module '" + token +
                                   "' is missing from "
                                   "docs/architecture.md"});
        }
    }

    // Link resolution: every relative link in README.md and docs/*.md
    // points at a file that exists.
    std::vector<fs::path> mdfiles;
    if (have_readme)
        mdfiles.push_back(readme);
    const fs::path docsdir = r / "docs";
    if (fs::exists(docsdir))
        for (const auto& e : fs::directory_iterator(docsdir))
            if (e.is_regular_file() &&
                endsWith(e.path().string(), ".md"))
                mdfiles.push_back(e.path());
    std::sort(mdfiles.begin(), mdfiles.end());
    for (const fs::path& md : mdfiles) {
        std::ifstream is(md);
        std::string line;
        int lineno = 0;
        bool in_fence = false;
        while (std::getline(is, line)) {
            ++lineno;
            // Fenced code blocks hold code, not links ("[](int x)" is a
            // lambda, not a markdown link).
            const size_t text_start = line.find_first_not_of(" \t");
            if (text_start != std::string::npos &&
                line.compare(text_start, 3, "```") == 0) {
                in_fence = !in_fence;
                continue;
            }
            if (in_fence)
                continue;
            size_t pos = 0;
            while ((pos = line.find("](", pos)) != std::string::npos) {
                const size_t start = pos + 2;
                const size_t close = line.find(')', start);
                pos = start;
                if (close == std::string::npos)
                    break;
                std::string target = line.substr(start, close - start);
                if (target.empty() || target[0] == '#' ||
                    target.find("://") != std::string::npos ||
                    target.rfind("mailto:", 0) == 0)
                    continue;
                const size_t hash = target.find('#');
                if (hash != std::string::npos)
                    target = target.substr(0, hash);
                if (target.empty())
                    continue;
                ++checked;
                if (!fs::exists(md.parent_path() / target))
                    out.push_back({md.string(), lineno, "docs-link",
                                   "broken link target '" + target +
                                       "'"});
            }
        }
    }

    // Format coverage: every versioned header literal in src/ has its
    // name in docs/formats.md.
    if (fs::exists(srcdir)) {
        std::vector<std::string> seen;
        for (const auto& e : fs::recursive_directory_iterator(srcdir)) {
            if (!e.is_regular_file() ||
                !isSourceFile(e.path().string()))
                continue;
            const FileText ft = readFile(e.path().string());
            for (const auto& [name, line] : formatHeadersIn(ft)) {
                if (std::find(seen.begin(), seen.end(), name) !=
                    seen.end())
                    continue;
                seen.push_back(name);
                ++checked;
                if (have_formats &&
                    formats_text.find(name) == std::string::npos)
                    out.push_back(
                        {ft.path, line, "docs-format",
                         "versioned format '" + name +
                             "' is not documented in docs/formats.md"});
            }
        }
    }
    return checked;
}

// ---------------------------------------------------------- driver ---

std::vector<Finding>
lintFile(const std::string& path)
{
    FileText ft = readFile(path);
    AllowMap am = buildAllowMap(ft);
    std::vector<Finding> out = am.tagFindings;
    checkNondet(ft, am, out);
    checkUnorderedIter(ft, am, out);
    checkDoubleFormat(ft, am, out);
    checkSpanPayload(ft, am, out);
    return out;
}

std::vector<std::string>
collectFiles(const Options& opt)
{
    std::vector<std::string> files = opt.files;
    for (const std::string& root : opt.roots) {
        for (const char* sub :
             {"src", "tests", "bench", "examples", "tools"}) {
            fs::path dir = fs::path(root) / sub;
            if (!fs::exists(dir))
                continue;
            for (const auto& e : fs::recursive_directory_iterator(dir)) {
                if (!e.is_regular_file())
                    continue;
                std::string p = e.path().string();
                // Fixture files exist to violate the rules.
                if (p.find("/fixtures/") != std::string::npos)
                    continue;
                if (isSourceFile(p))
                    files.push_back(p);
            }
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

int
reportFindings(const std::vector<Finding>& findings)
{
    for (const Finding& f : findings)
        std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                     f.check.c_str(), f.message.c_str());
    if (!findings.empty()) {
        std::fprintf(stderr, "magma_lint: %zu finding(s)\n",
                     findings.size());
        return 1;
    }
    return 0;
}

/**
 * Self-test over the fixtures directory: every `bad_<check>[_...].cc`
 * must yield at least one finding of exactly <check>; every `good_*.cc`
 * must be clean. The checker gates the tree, so it is itself gated.
 */
int
selfTest(const std::string& dir)
{
    int failures = 0;
    int cases = 0;
    std::vector<std::string> files;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file() && isSourceFile(e.path().string()))
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());

    for (const std::string& path : files) {
        std::string stem = fs::path(path).stem().string();
        std::vector<Finding> findings = lintFile(path);
        ++cases;
        if (stem.rfind("good_", 0) == 0) {
            if (!findings.empty()) {
                std::fprintf(stderr,
                             "SELF-TEST FAIL %s: expected clean, got:\n",
                             path.c_str());
                reportFindings(findings);
                ++failures;
            }
            continue;
        }
        if (stem.rfind("bad_", 0) == 0) {
            // bad_<check>, with '_' in place of '-' in the check id.
            std::string check = stem.substr(4);
            size_t extra = check.find("__");
            if (extra != std::string::npos)
                check = check.substr(0, extra);
            std::replace(check.begin(), check.end(), '_', '-');
            bool hit = false;
            for (const Finding& f : findings)
                hit = hit || f.check == check;
            if (!hit) {
                std::fprintf(
                    stderr,
                    "SELF-TEST FAIL %s: expected a '%s' finding, got %zu "
                    "other finding(s)\n",
                    path.c_str(), check.c_str(), findings.size());
                reportFindings(findings);
                ++failures;
            }
            continue;
        }
        std::fprintf(stderr,
                     "SELF-TEST FAIL %s: fixture names must start with "
                     "bad_<check> or good_\n",
                     path.c_str());
        ++failures;
    }
    // Docs-gate fixtures: a tree that must pass and one that must not.
    const fs::path docs_good = fs::path(dir) / "docs_good_tree";
    if (fs::exists(docs_good)) {
        ++cases;
        std::vector<Finding> findings;
        checkDocs(docs_good.string(), findings);
        if (!findings.empty()) {
            std::fprintf(stderr,
                         "SELF-TEST FAIL %s: expected clean, got:\n",
                         docs_good.string().c_str());
            reportFindings(findings);
            ++failures;
        }
    }
    const fs::path docs_bad = fs::path(dir) / "docs_bad_tree";
    if (fs::exists(docs_bad)) {
        ++cases;
        std::vector<Finding> findings;
        checkDocs(docs_bad.string(), findings);
        bool module_map = false, link = false, format = false;
        for (const Finding& f : findings) {
            module_map = module_map || f.check == "docs-module-map";
            link = link || f.check == "docs-link";
            format = format || f.check == "docs-format";
        }
        if (!module_map || !link || !format) {
            std::fprintf(stderr,
                         "SELF-TEST FAIL %s: expected docs-module-map + "
                         "docs-link + docs-format findings, got %zu "
                         "finding(s)\n",
                         docs_bad.string().c_str(), findings.size());
            reportFindings(findings);
            ++failures;
        }
    }

    std::fprintf(stderr, "magma_lint self-test: %d case(s), %d failure(s)\n",
                 cases, failures);
    if (cases == 0)
        return 2;
    return failures ? 1 : 0;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: magma_lint [--root DIR]... [FILE]...\n"
        "       magma_lint --self-test FIXTURE_DIR\n"
        "       magma_lint --check-docs --root DIR\n"
        "       magma_lint --check-spans --root DIR\n");
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root")
            opt.roots.push_back(next());
        else if (arg == "--self-test")
            opt.selfTestDir = next();
        else if (arg == "--check-docs")
            opt.checkDocs = true;
        else if (arg == "--check-spans")
            opt.checkSpans = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "magma_lint: unknown flag '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            opt.files.push_back(arg);
        }
    }

    if (!opt.selfTestDir.empty())
        return selfTest(opt.selfTestDir);

    if (opt.checkDocs) {
        if (opt.roots.empty()) {
            usage();
            return 2;
        }
        std::vector<Finding> findings;
        int checked = 0;
        for (const std::string& root : opt.roots)
            checked += checkDocs(root, findings);
        std::fprintf(stderr, "magma_lint: %d documentation site(s) "
                             "checked\n",
                     checked);
        if (checked == 0) {
            std::fprintf(stderr, "magma_lint: nothing to check\n");
            return 2;
        }
        return reportFindings(findings);
    }

    if (opt.checkSpans) {
        std::vector<std::string> files = collectFiles(opt);
        if (files.empty()) {
            usage();
            return 2;
        }
        std::vector<Finding> findings;
        int sites = 0;
        for (const std::string& f : files) {
            FileText ft = readFile(f);
            AllowMap am = buildAllowMap(ft);
            sites += checkSpanPayload(ft, am, findings);
        }
        std::fprintf(stderr, "magma_lint: %d span site(s) checked\n",
                     sites);
        return reportFindings(findings);
    }

    std::vector<std::string> files = collectFiles(opt);
    if (files.empty()) {
        usage();
        return 2;
    }
    std::vector<Finding> findings;
    for (const std::string& f : files) {
        std::vector<Finding> fs_ = lintFile(f);
        findings.insert(findings.end(), fs_.begin(), fs_.end());
    }
    std::fprintf(stderr, "magma_lint: %zu file(s) scanned\n",
                 files.size());
    return reportFindings(findings);
}
