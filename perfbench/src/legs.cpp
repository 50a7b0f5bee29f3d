#include "legs.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "src/aqm/droptail.hpp"
#include "src/mapred/runtime.hpp"
#include "src/net/topology.hpp"
#include "src/sim/invariants.hpp"
#include "src/sim/simulator.hpp"
#include "src/workloads/factory.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace ecnsim;

namespace perfbench {

LegOutcome runPhased(const ExperimentConfig& cfg, bool traced) {
    if (traced && cfg.obs.anyEnabled()) {
        throw std::logic_error("traced leg refused: TimingQueue cannot be combined with obs");
    }
    LegOutcome out;
    out.traced = traced;
    SampleGate gate;
    // Same order as runExperiment; the checker is off, so the Simulator
    // installs nothing and the run does no invariant work.
    InvariantChecker checker(InvariantMode::Off);
    const PacketPool::Stats poolBefore = PacketPool::local().stats();

    double t = threadCpuSeconds();
    const auto lap = [&t] {
        const double now = threadCpuSeconds();
        const double d = now - t;
        t = now;
        return d;
    };

    auto sim = std::make_unique<Simulator>(cfg.seed, cfg.scheduler);
    sim->setInvariants(&checker);
    auto net = std::make_unique<Network>(*sim);

    QueueConfig switchQ = cfg.switchQueue;
    switchQ.linkRate = cfg.linkRate;
    switchQ.capacityPackets = bufferCapacityPackets(cfg.buffers);
    const std::size_t hostCap = cfg.hostQueuePackets;
    TopologyConfig topo;
    topo.linkRate = cfg.linkRate;
    topo.linkDelay = cfg.linkDelay;
    topo.switchQueue = makeQueueFactory(switchQ, sim->rng());
    topo.hostQueue = [hostCap] { return std::make_unique<DropTailQueue>(hostCap); };
    if (traced) {
        topo.switchQueue = timedFactory(std::move(topo.switchQueue), out.aqm, gate);
        topo.hostQueue = timedFactory(std::move(topo.hostQueue), out.nic, gate);
    }
    std::vector<HostNode*> hosts = cfg.topology == TopologyKind::Star
                                       ? buildStar(*net, cfg.numNodes, topo)
                                       : buildLeafSpine(*net, cfg.leafSpine, topo);
    out.cpu.netBuild = lap();

    ClusterSpec cluster = cfg.cluster;
    cluster.numNodes = static_cast<int>(hosts.size());
    TcpConfig tcpConfig = TcpConfig::forTransport(cfg.transport);
    tcpConfig.ectOnControlPackets = cfg.ecnPlusPlus;
    tcpConfig.sackEnabled = cfg.sack;
    auto runtime = std::make_unique<ClusterRuntime>(*net, hosts, cluster, tcpConfig);
    out.cpu.stacksBuild = lap();

    std::unique_ptr<WorkloadDriver> driver = makeWorkloadDriver(cfg.workload, cfg.job, *runtime);
    if (!cfg.faultSpec.empty()) installFaults(FaultPlan::parse(cfg.faultSpec), *runtime);
    Simulator* simPtr = sim.get();
    driver->setOnComplete([simPtr] { simPtr->stop(); });
    driver->start();
    out.cpu.driverBuild = lap();

    sim->runUntil(cfg.horizon);
    out.cpu.run = lap();

    net->verifyInvariants();
    out.timedOut = !driver->terminal();
    out.jobFailed = driver->failed();
    out.jobError = driver->failureReason();
    out.report = driver->report(cfg.horizon);
    const NetworkTelemetry& tel = net->telemetry();
    out.digest = tel.digest();
    out.packetsDelivered = tel.packetsDelivered();
    out.events = sim->eventsExecuted();
    out.batchDrains = sim->batchDrains();
    const SchedulerCounters sched = sim->schedulerCounters();
    out.cascades = sched.cascades;
    out.timerChurn = sched.cancelled + sched.rearms;
    out.maxLivePending = sched.maxLivePending;
    for (const Queue* q : net->switchQueues()) {
        const QueueStats::PerClass c = q->stats().total();
        out.switchTotal.enqueued += c.enqueued;
        out.switchTotal.marked += c.marked;
        out.switchTotal.droppedEarly += c.droppedEarly;
        out.switchTotal.droppedOverflow += c.droppedOverflow;
    }
    out.switchAck = net->switchDropSummary(PacketClass::PureAck);
    out.fastPathHits = net->switchFastPathHitsTotal();
    out.tcp = runtime->aggregateTcpStats();
    for (int i = 0; i < runtime->numNodes(); ++i) {
        out.connections += runtime->node(i).stack->connections().size();
    }
    const PacketPool::Stats poolAfter = PacketPool::local().stats();
    out.poolAllocated = poolAfter.allocated - poolBefore.allocated;
    out.poolRecycled = poolAfter.recycled - poolBefore.recycled;
    out.cpu.collect = lap();

    // runExperiment's destruction order: driver, runtime, network, simulator.
    driver.reset();
    runtime.reset();
    net.reset();
    sim.reset();
    out.cpu.teardown = lap();
    return out;
}

namespace {

std::string runFailure(const ExperimentConfig& cfg, bool timedOut, bool jobFailed,
                       const std::string& jobError, std::uint64_t digest,
                       std::uint64_t expectedDigest, std::uint64_t reqIssued,
                       std::uint64_t reqCompleted) {
    if (timedOut) return "timed out at the horizon";
    if (jobFailed) return "job failed: " + jobError;
    if (digest != expectedDigest) {
        return "digest " + std::to_string(digest) + " != reference " +
               std::to_string(expectedDigest);
    }
    if (isRequestWorkload(cfg) && reqCompleted != reqIssued) {
        return "requests completed " + std::to_string(reqCompleted) + " != issued " +
               std::to_string(reqIssued);
    }
    return {};
}

}  // namespace

std::string legFailure(const ExperimentConfig& cfg, const LegOutcome& leg,
                       std::uint64_t expectedDigest) {
    std::string why = runFailure(cfg, leg.timedOut, leg.jobFailed, leg.jobError, leg.digest,
                                 expectedDigest, leg.report.reqIssued, leg.report.reqCompleted);
    if (why.empty() && leg.traced && leg.aqm.enqueueCalls != leg.switchTotal.offered()) {
        why = "decorator counted " + std::to_string(leg.aqm.enqueueCalls) +
              " switch enqueues, queues offered " + std::to_string(leg.switchTotal.offered());
    }
    return why;
}

std::string resultFailure(const ExperimentConfig& cfg, const ExperimentResult& r,
                          std::uint64_t expectedDigest) {
    return runFailure(cfg, r.timedOut, r.jobFailed, r.jobError, r.telemetryDigest, expectedDigest,
                      r.reqIssued, r.reqCompleted);
}

}  // namespace perfbench
