#ifndef MAGMA_COMMON_CSV_H_
#define MAGMA_COMMON_CSV_H_

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace magma::common {

/**
 * Minimal CSV writer used by the benchmark harnesses to dump figure data.
 *
 * Each harness prints human-readable rows to stdout and mirrors the series
 * into a CSV so the paper's plots can be regenerated with any plotting tool.
 */
class CsvWriter {
  public:
    /** Open (truncate) the file at `path` and write the header row. */
    CsvWriter(const std::string& path, const std::vector<std::string>& header);

    /**
     * Append one row; the cell count should match the header. A cell
     * holding a comma, a double quote or a line break is written quoted
     * (RFC 4180), with its quotes doubled.
     */
    void row(const std::vector<std::string>& cells);

    /** Convenience: numeric row. */
    void rowNumeric(const std::vector<double>& cells);

    /** Whether the file opened successfully. */
    bool ok() const { return static_cast<bool>(out_); }

    /** Format a double compactly (up to 6 significant digits). */
    static std::string num(double v);

  private:
    std::ofstream out_;
};

}  // namespace magma::common

#endif  // MAGMA_COMMON_CSV_H_
