#include "bench.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double
hostSpinMs()
{
    uint64_t x = 0x2545f4914f6cdd1dULL;
    int64_t t0 = nowNs();
    for (int i = 0; i < 40'000'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        // Keeps x in a register and the loop un-folded.
        asm volatile("" : "+r"(x));
    }
    int64_t t1 = nowNs();
    asm volatile("" ::"r"(x));
    return nsToMs(t1 - t0);
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
    // process that forked this one (the benchmark's launcher) across exec.
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(1 << 16, '\n');
    }
    throw std::runtime_error("peakRssMb: no VmHWM in /proc/self/status");
}

bool
SpanLog::write(const std::string& path) const
{
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
           << ",\"op\":" << s.op
           << ",\"replayed\":" << (s.replayed ? "true" : "false") << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

void
putLatencyMetrics(Outcome& out, const std::vector<double>& op_ms,
                  double measured_seconds,
                  const std::vector<double>& setup_seconds)
{
    out.metrics["setup_s"] = median(setup_seconds);
    out.metrics["ops_per_s"] =
        static_cast<double>(op_ms.size()) / measured_seconds;
    out.metrics["op_ms_p50"] = percentile(op_ms, 0.50);
    out.metrics["op_ms_p90"] = percentile(op_ms, 0.90);
    std::string note = "samples: ops=";
    note += std::to_string(op_ms.size());
    note += " setup_s:";
    for (double s : setup_seconds) {
        note += ' ';
        note += formatDouble(s);
    }
    out.notes.push_back(note);
}

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace perfbench
