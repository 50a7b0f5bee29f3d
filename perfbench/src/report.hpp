// Turning the legs of one invocation into named metrics and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "legs.hpp"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything one invocation measured, leg by leg. Only successful legs
/// are kept; the deterministic counters are read from the first one.
struct Samples {
    std::vector<LegOutcome> untraced;
    std::vector<LegOutcome> traced;
    std::vector<double> obsFullCpu;  ///< thread CPU s of runExperiment, obs "full"
    std::vector<ecnsim::ExperimentResult> obsFull;
};

/// setup_s, run_cpu_s and obs_full_cpu_s (run.py adds peak_rss_mb).
/// Throws std::runtime_error when a leg kind has no sample.
std::vector<Metric> endToEndMetrics(const Samples& s);

/// Every per-layer metric, in BENCHMARK.json order. Needs traced,
/// untraced and obs-full samples; throws std::runtime_error otherwise.
std::vector<Metric> perLayerMetrics(const Samples& s, double clockCostNs);

/// Human-readable lines: sample counts, the reference digest every leg
/// reproduced, and the checked simulated outputs (job runtime, request
/// p99, ACK early-drop share).
std::string summaryText(const ecnsim::ExperimentConfig& cfg, std::uint64_t refDigest,
                        const Samples& s);

/// The one-line JSON result: correct, attempted, failed, metrics.
std::string resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench
