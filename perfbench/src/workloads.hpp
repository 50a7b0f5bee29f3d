// The benchmark's workloads: three paper-shaped experiment configs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/experiment.hpp"

namespace perfbench {

struct WorkloadDef {
    std::string name;
    /// Builds the config; the seed goes into ExperimentConfig::seed and
    /// nowhere else.
    ecnsim::ExperimentConfig (*make)(std::uint64_t seed);
};

const std::vector<WorkloadDef>& workloads();

/// Config for workload `name` at `seed`, with obs and invariant checking
/// off. Throws std::invalid_argument on an unknown name.
ecnsim::ExperimentConfig makeWorkloadConfig(std::string_view name, std::uint64_t seed);

/// True for workloads whose driver issues requests that must all complete.
bool isRequestWorkload(const ecnsim::ExperimentConfig& cfg);

}  // namespace perfbench
