// perfbench: the repository's end-to-end benchmark. One process runs one
// workload and prints, as its last stdout line, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) as
// name/value pairs; run.py attaches the units BENCHMARK.json gives them.
//
//   perfbench --workload search_s4 --seed 7 --seconds 10 --trace 0
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using perfbench::Args;
using perfbench::Outcome;

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "search_s4|dyn_churn --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--out-dir") {
            a.outDir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("bad number for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (a.seconds < 1 || a.seconds > 600)
        usage("--seconds must be in [1, 600]");
    return a;
}

Outcome
runWorkload(const Args& a)
{
    if (a.workload == "search_s4")
        return perfbench::runSearch(a);
    if (a.workload == "dyn_churn")
        return perfbench::runDyn(a);
    usage(("unknown workload " + a.workload).c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    const double spin_before = perfbench::hostSpinMs();
    Outcome out;
    try {
        out = runWorkload(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    const double spin_after = perfbench::hostSpinMs();
    out.notes.push_back("host.spin_ms before=" +
                        perfbench::formatDouble(spin_before) + " after=" +
                        perfbench::formatDouble(spin_after));
    out.notes.push_back("operations attempted=" +
                        std::to_string(out.attempted) +
                        " failed=" + std::to_string(out.failed));

    if (args.trace) {
        out.metrics["host.spin_ms"] = 0.5 * (spin_before + spin_after);
        out.metrics["fail_frac"] =
            out.attempted ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0;
        std::string path = args.outDir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
        if (!out.spans.write(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        out.notes.push_back("spans written to " + path);
    } else {
        out.metrics["peak_rss_mb"] = perfbench::peakRssMb();
    }

    std::string json = "{\"correct\": ";
    json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : out.metrics) {
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         name.c_str());
            return 1;
        }
        json += first ? "\"" : ", \"";
        first = false;
        json += name + "\": " + perfbench::formatDouble(value);
    }
    json += "}}";
    for (const std::string& note : out.notes)
        std::printf("# %s\n", note.c_str());
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return out.failed == 0 ? 0 : 1;
}
