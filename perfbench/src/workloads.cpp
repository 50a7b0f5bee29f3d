#include "workloads.hpp"

#include <stdexcept>

#include "src/core/series.hpp"

using namespace ecnsim;

namespace perfbench {
namespace {

constexpr int kNodes = 12;

ExperimentConfig base(std::int64_t inputBytesPerNode, std::uint64_t seed) {
    SweepScale scale;
    scale.numNodes = kNodes;
    scale.inputBytesPerNode = inputBytesPerNode;
    scale.repeats = 1;
    ExperimentConfig cfg = makeBaseConfig(scale);
    cfg.seed = seed;
    cfg.invariants = InvariantMode::Off;
    cfg.obs = ObsConfig{};
    return cfg;
}

void dctcpMarking(ExperimentConfig& cfg) {
    cfg.transport = TransportKind::Dctcp;
    cfg.switchQueue.kind = QueueKind::Red;
    cfg.switchQueue.redVariant = RedVariant::DctcpMimic;
    cfg.switchQueue.ecnEnabled = true;
    cfg.switchQueue.targetDelay = Time::microseconds(100);
}

/// The paper's core setup: a Terasort shuffle through one shallow-buffered
/// classic-RED+ECN switch. Bulk path, long-lived connections, RED's
/// below-min-th fast path; the workload layer does almost nothing.
ExperimentConfig shuffleStar(std::uint64_t seed) {
    ExperimentConfig cfg = base(8 * 1024 * 1024, seed);
    cfg.name = "shuffle_star";
    cfg.transport = TransportKind::EcnTcp;
    cfg.switchQueue.kind = QueueKind::Red;
    cfg.switchQueue.redVariant = RedVariant::Classic;
    cfg.switchQueue.ecnEnabled = true;
    cfg.switchQueue.targetDelay = Time::microseconds(500);
    cfg.buffers = BufferProfile::Shallow;
    return cfg;
}

/// The same job on a 2-rack leaf-spine fabric under DCTCP marking: every
/// packet crosses two switch queues, RED takes the marking path, ECMP
/// forwarding, and the most same-timestamp batching.
ExperimentConfig terasortLeafSpine(std::uint64_t seed) {
    ExperimentConfig cfg = base(4 * 1024 * 1024, seed);
    cfg.name = "terasort_leafspine";
    dctcpMarking(cfg);
    cfg.topology = TopologyKind::LeafSpine;
    cfg.leafSpine = LeafSpineShape{.racks = 2, .hostsPerRack = kNodes / 2, .spines = 2};
    return cfg;
}

/// Replicated KV with open-loop Poisson clients. Open loop because the
/// closed-loop kv driver ignores the seed (identical digests for seeds 1
/// and 2). 800 ops/s per client (p99 ~0.84 ms) stays below the service's
/// capacity, which lies between 1200 (p99 ~3.8 ms) and 1600 ops/s per
/// client (p99 ~145 ms, backlog growing).
ExperimentConfig kvOpen(std::uint64_t seed) {
    ExperimentConfig cfg = base(1024 * 1024, seed);
    cfg.name = "kv_open";
    dctcpMarking(cfg);
    cfg.workload.kind = WorkloadKind::KeyValue;
    cfg.workload.kv.load = LoadMode::Open;
    cfg.workload.kv.clients = 8;
    cfg.workload.kv.replicas = 2;
    cfg.workload.kv.opsPerSecPerClient = 800.0;
    cfg.workload.kv.requestsPerClient = 400;
    return cfg;
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
    static const std::vector<WorkloadDef> defs{
        {"shuffle_star", shuffleStar},
        {"terasort_leafspine", terasortLeafSpine},
        {"kv_open", kvOpen},
    };
    return defs;
}

ExperimentConfig makeWorkloadConfig(std::string_view name, std::uint64_t seed) {
    for (const WorkloadDef& w : workloads()) {
        if (w.name == name) return w.make(seed);
    }
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

bool isRequestWorkload(const ExperimentConfig& cfg) {
    return cfg.workload.kind != WorkloadKind::MapReduce;
}

}  // namespace perfbench
