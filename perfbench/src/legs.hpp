// One experiment run ("leg") as the benchmark times it.
//
// The phase-timed leg rebuilds what runExperiment does, in the same order,
// from the program's public API, so that set-up, the run itself,
// collection and teardown can each be timed with thread CPU time. The
// equivalence check (reference digest from runExperiment) catches this
// copy of the construction order drifting from the program's.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/experiment.hpp"
#include "src/tcp/connection.hpp"
#include "src/workloads/driver.hpp"
#include "timing_queue.hpp"

namespace perfbench {

/// Thread CPU seconds per phase of one leg.
struct PhaseTimes {
    double netBuild = 0.0;     ///< Simulator, Network, queue factories, topology
    double stacksBuild = 0.0;  ///< ClusterRuntime (per-node TCP stacks, disks)
    double driverBuild = 0.0;  ///< workload driver: build, faults, start
    double run = 0.0;          ///< Simulator::runUntil
    double collect = 0.0;      ///< verifyInvariants, report, aggregates
    double teardown = 0.0;     ///< destruction of every simulation object

    double setup() const { return netBuild + stacksBuild + driverBuild; }
    double total() const { return setup() + run + collect + teardown; }
};

/// What one phase-timed leg measured and produced.
struct LegOutcome {
    PhaseTimes cpu;

    // Checked outputs.
    std::uint64_t digest = 0;
    bool timedOut = false;
    bool jobFailed = false;
    std::string jobError;
    ecnsim::WorkloadReport report;

    // Deterministic work counters.
    std::uint64_t events = 0;
    std::uint64_t batchDrains = 0;
    std::uint64_t cascades = 0;
    std::uint64_t timerChurn = 0;  ///< cancels + in-place re-arms
    std::uint64_t maxLivePending = 0;
    ecnsim::QueueStats::PerClass switchTotal;  ///< summed over switch queues
    ecnsim::QueueStats::PerClass switchAck;    ///< pure ACKs only
    std::uint64_t fastPathHits = 0;
    std::uint64_t packetsDelivered = 0;
    std::uint64_t poolAllocated = 0;
    std::uint64_t poolRecycled = 0;
    ecnsim::TcpConnStats tcp;
    std::uint64_t connections = 0;

    // Traced legs only.
    bool traced = false;
    LayerTally aqm;  ///< switch egress queues
    LayerTally nic;  ///< host NIC queues
};

/// Run `cfg` phase by phase. `traced` wraps both queue factories in
/// TimingQueue; it throws std::logic_error if cfg has obs enabled.
LegOutcome runPhased(const ecnsim::ExperimentConfig& cfg, bool traced);

/// Why a leg counts as failed ("" when it did not): timeout, a failed job,
/// a digest other than `expectedDigest`, requests left uncompleted, or (on
/// traced legs) a decorator count that disagrees with the queues' own.
std::string legFailure(const ecnsim::ExperimentConfig& cfg, const LegOutcome& leg,
                       std::uint64_t expectedDigest);

/// The same judgement for a runExperiment result (reference and obs-full
/// legs).
std::string resultFailure(const ecnsim::ExperimentConfig& cfg, const ecnsim::ExperimentResult& r,
                          std::uint64_t expectedDigest);

}  // namespace perfbench
