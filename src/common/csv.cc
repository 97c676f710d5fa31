#include "common/csv.h"

#include <iomanip>

namespace magma::common {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path)
{
    if (out_)
        row(header);
}

void
CsvWriter::row(const std::vector<std::string>& cells)
{
    if (!out_)
        return;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (i)
            out_ << ',';
        const std::string& cell = cells[i];
        // RFC 4180: a cell holding a separator, a quote or a line break is
        // quoted, and each quote inside it doubled.
        if (cell.find_first_of(",\"\r\n") == std::string::npos) {
            out_ << cell;
            continue;
        }
        out_ << '"';
        for (char c : cell) {
            if (c == '"')
                out_ << '"';
            out_ << c;
        }
        out_ << '"';
    }
    out_ << '\n';
}

void
CsvWriter::rowNumeric(const std::vector<double>& cells)
{
    std::vector<std::string> s;
    s.reserve(cells.size());
    for (double c : cells)
        s.push_back(num(c));
    row(s);
}

std::string
CsvWriter::num(double v)
{
    std::ostringstream os;
    os << std::setprecision(6) << v;
    return os.str();
}

}  // namespace magma::common
