/**
 * @file
 * Reporting for the benchmark harness and the observability layer:
 * aligned text tables on stdout with CSV/JSON mirrors, and the
 * expected-vs-actual run report that joins per-layer LayerCost
 * predictions with observed kernel counters and latency statistics
 * (the paper's Fig 1 gap, measured instead of inferred).
 */

#ifndef DLIS_STACK_REPORT_HPP
#define DLIS_STACK_REPORT_HPP

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "nn/exec_context.hpp"
#include "obs/stats.hpp"

namespace dlis {

class InferenceStack;

/** Simple aligned-column table printer. */
class TablePrinter
{
  public:
    /** @param title printed above the table. */
    explicit TablePrinter(std::string title);

    /** Set the column headers (fixes the column count). */
    void setHeader(std::vector<std::string> header);

    /** Append a row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Render to stdout. */
    void print() const;

    /** Write a CSV mirror (no alignment padding). */
    void writeCsv(const std::string &path) const;

    /**
     * Write a JSON mirror: an array of row objects keyed by header.
     * Cells whose text parses fully as a number are emitted as JSON
     * numbers, everything else as strings. Best-effort like the CSV.
     */
    void writeJson(const std::string &path) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** One layer's predicted costs joined with its observed counters. */
struct LayerObservation
{
    LayerCost expected;
    /**
     * Observed per-forward counter values for this layer, keyed by
     * leaf name ("csr_row_visits", "gemm_macs", ...). Zero-valued
     * counters are omitted. Counts are deterministic per forward, so
     * the per-forward value is the run total divided by repeats.
     */
    std::map<std::string, uint64_t> observed;
    /** Wall-clock latency of this layer across the repeats. */
    obs::LatencyStats latency;
};

/**
 * The static memory prediction (analysis::estimateForwardMemory)
 * joined with the MemoryTracker's observation of the same run. The
 * static and observed activation/scratch peaks agree byte-for-byte on
 * the serial backend; a mismatch means the allocation model and the
 * runtime have drifted apart.
 */
struct MemoryObservation
{
    bool collected = false; //!< filled in by collectRunReport
    size_t staticWeights = 0;
    size_t staticSparseMeta = 0;
    size_t staticActivations = 0; //!< predicted activation high-water
    size_t staticScratch = 0;     //!< predicted im2col workspace peak
    size_t observedActivations = 0; //!< tracker peak delta over the run
    size_t observedScratch = 0;
};

/** Machine-readable record of one measured run. */
struct RunReport
{
    std::string model;
    std::string technique;
    std::string format;
    std::string backend;
    std::string convAlgo;
    int threads = 1; //!< threads the forwards ran (Serial: 1)
    size_t repeats = 0;
    size_t batch = 1;
    obs::LatencyStats latency; //!< whole-forward latency (seconds)
    std::vector<LayerObservation> layers;
    MemoryObservation memory;
    /** Raw run-total counter snapshot ("<layer>.<counter>"). */
    std::map<std::string, uint64_t> counters;
};

/**
 * Measure @p stack for @p repeats forwards under @p ctx, after one
 * untimed warm-up forward, and join the LayerCost predictions with the
 * observed kernel counters and per-layer latencies. Uses ctx.metrics when attached (resetting it first) or a
 * private registry otherwise; ctx.tracer, when attached, receives one
 * nested span per layer per repeat under a "forward#N" parent.
 */
RunReport collectRunReport(InferenceStack &stack, ExecContext &ctx,
                           size_t repeats, size_t batch = 1);

/** Print the expected-vs-actual table of @p report to stdout. */
void printRunReport(const RunReport &report);

/** Write @p report as JSON (schema "dlis.metrics.v1"); false on I/O error. */
bool writeRunReportJson(const RunReport &report,
                        const std::string &path);

/** Format seconds with 4 significant decimals. */
std::string fmtSeconds(double seconds);

/** Format a fraction as a percentage with 2 decimals. */
std::string fmtPercent(double fraction);

/** Format bytes as MB with 1 decimal. */
std::string fmtMb(size_t bytes);

/** Format a double with @p decimals digits. */
std::string fmtDouble(double value, int decimals = 3);

} // namespace dlis

#endif // DLIS_STACK_REPORT_HPP
