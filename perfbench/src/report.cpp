#include "report.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/obs/profiler.hpp"
#include "stats.hpp"

using namespace ecnsim;

namespace perfbench {
namespace {

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double ratio(std::uint64_t num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Median of f over the successful legs of one kind; throws when there
/// are none.
template <typename T, typename F>
double medianOf(const std::vector<T>& xs, const char* what, F f) {
    if (xs.empty()) throw std::runtime_error(std::string("no successful ") + what + " leg");
    std::vector<double> v;
    v.reserve(xs.size());
    for (const T& x : xs) v.push_back(f(x));
    return median(std::move(v));
}

double obsFullMedian(const Samples& s) {
    return medianOf(s.obsFullCpu, "obs-full", [](double v) { return v; });
}

std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

std::vector<Metric> endToEndMetrics(const Samples& s) {
    const auto untraced = [&s](auto f) { return medianOf(s.untraced, "untraced", f); };
    return {
        {"setup_s", untraced([](const LegOutcome& l) { return l.cpu.setup(); }), "s"},
        {"run_cpu_s", untraced([](const LegOutcome& l) { return l.cpu.run; }), "s"},
        {"obs_full_cpu_s", obsFullMedian(s), "s"},
    };
}

std::vector<Metric> perLayerMetrics(const Samples& s, double clockCostNs) {
    const auto untraced = [&s](auto f) { return medianOf(s.untraced, "untraced", f); };
    const auto traced = [&s](auto f) { return medianOf(s.traced, "traced", f); };
    if (s.traced.empty()) throw std::runtime_error("no successful traced leg");
    if (s.obsFull.empty()) throw std::runtime_error("no successful obs-full leg");
    // Deterministic counters repeat exactly on every leg of one seed.
    const LegOutcome& c = s.traced.front();
    const QueueStats::PerClass& sw = c.switchTotal;

    const double runCpu = untraced([](const LegOutcome& l) { return l.cpu.run; });
    const double untracedTotal = untraced([](const LegOutcome& l) { return l.cpu.total(); });
    const double obsFull = obsFullMedian(s);
    const double tracedRun = traced([](const LegOutcome& l) { return l.cpu.run; });
    const double aqmSelf =
        traced([clockCostNs](const LegOutcome& l) { return l.aqm.selfSeconds(clockCostNs); });
    const double nicSelf =
        traced([clockCostNs](const LegOutcome& l) { return l.nic.selfSeconds(clockCostNs); });
    const ExperimentResult& o = s.obsFull.front();

    std::vector<Metric> m{
        {"sim.events", static_cast<double>(c.events), "count"},
        {"sim.events_per_drain", ratio(c.events, c.batchDrains), "ratio"},
        {"sim.cascades_per_event", ratio(c.cascades, c.events), "ratio"},
        {"sim.timer_churn_per_event", ratio(c.timerChurn, c.events), "ratio"},
        {"sim.max_live_pending", static_cast<double>(c.maxLivePending), "count"},
        {"sim.ns_per_event", ratio(runCpu * 1e9, static_cast<double>(c.events)), "ns"},
        {"aqm.self_s", aqmSelf, "s"},
        {"aqm.ns_per_call", ratio(aqmSelf * 1e9, static_cast<double>(c.aqm.calls())), "ns"},
        {"aqm.enqueue_calls", static_cast<double>(c.aqm.enqueueCalls), "count"},
        {"aqm.fast_path_share", ratio(c.fastPathHits, c.aqm.enqueueCalls), "ratio"},
        {"aqm.mark_share", ratio(sw.marked, sw.offered()), "ratio"},
        {"aqm.early_drop_share", ratio(sw.droppedEarly, sw.offered()), "ratio"},
        {"aqm.overflow_drop_share", ratio(sw.droppedOverflow, sw.offered()), "ratio"},
        {"aqm.ack_early_drop_share", ratio(c.switchAck.droppedEarly, c.switchAck.offered()),
         "ratio"},
        {"net.nic_queue_self_s", nicSelf, "s"},
        {"net.nic_queue_calls", static_cast<double>(c.nic.calls()), "count"},
        {"net.packets_delivered", static_cast<double>(c.packetsDelivered), "count"},
        {"net.pool_allocs_per_packet", ratio(c.poolAllocated, c.packetsDelivered), "ratio"},
        {"net.pool_recycle_share", ratio(c.poolRecycled, c.poolAllocated), "ratio"},
        {"net.build_s", untraced([](const LegOutcome& l) { return l.cpu.netBuild; }), "s"},
        {"tcp.segments_sent", static_cast<double>(c.tcp.segmentsSent), "count"},
        {"tcp.acks_sent", static_cast<double>(c.tcp.acksSent), "count"},
        {"tcp.retransmit_share",
         ratio(c.tcp.retransmits, std::uint64_t{c.tcp.segmentsSent} + c.tcp.retransmits), "ratio"},
        {"tcp.rto_events", static_cast<double>(c.tcp.rtoEvents), "count"},
        {"tcp.connections", static_cast<double>(c.connections), "count"},
        {"tcp.stacks_build_s", untraced([](const LegOutcome& l) { return l.cpu.stacksBuild; }),
         "s"},
        {"workloads.driver_build_s",
         untraced([](const LegOutcome& l) { return l.cpu.driverBuild; }), "s"},
        {"workloads.req_completed_share", ratio(c.report.reqCompleted, c.report.reqIssued),
         "ratio"},
        {"mapred.task_retries", static_cast<double>(c.report.taskRetries), "count"},
        {"core.collect_s", untraced([](const LegOutcome& l) { return l.cpu.collect; }), "s"},
        {"core.teardown_s", untraced([](const LegOutcome& l) { return l.cpu.teardown; }), "s"},
        {"obs.full_overhead_pct", (ratio(obsFull, untracedTotal) - 1.0) * 100.0, "%"},
        {"obs.trace_dropped_share", ratio(o.traceDroppedEvents, o.traceRecords), "ratio"},
        {"obs.metric_samples", static_cast<double>(o.metricSamples), "count"},
    };
    for (std::size_t k = 0; k < kNumProfileKinds; ++k) {
        const std::string kind(profileKindName(static_cast<ProfileKind>(k)));
        const double ms = medianOf(s.obsFull, "obs-full", [&kind](const ExperimentResult& r) {
            for (const auto& e : r.obsProfile.kinds) {
                if (e.name == kind) return e.wallMs;
            }
            return 0.0;
        });
        m.push_back({"obs.profile." + kind + "_ms", ms, "ms"});
    }
    m.push_back({"trace.overhead_pct", (ratio(tracedRun, runCpu) - 1.0) * 100.0, "%"});
    m.push_back({"run.unattributed_s",
                 traced([clockCostNs](const LegOutcome& l) {
                     return l.cpu.run - l.aqm.selfSeconds(clockCostNs) -
                            l.nic.selfSeconds(clockCostNs);
                 }),
                 "s"});
    return m;
}

std::string summaryText(const ExperimentConfig& cfg, std::uint64_t refDigest, const Samples& s) {
    char digest[24];
    std::snprintf(digest, sizeof digest, "0x%016llx", static_cast<unsigned long long>(refDigest));
    std::ostringstream os;
    os << "workload " << cfg.name << " seed " << cfg.seed << ": samples untraced="
       << s.untraced.size() << " traced=" << s.traced.size() << " obs_full=" << s.obsFullCpu.size()
       << '\n'
       << "reference digest: " << digest << '\n';
    if (!s.untraced.empty()) {
        const LegOutcome& l = s.untraced.front();
        os << "checked outputs: job_runtime_s=" << fmt(l.report.runtime.toSeconds())
           << " req_p99_us=" << fmt(l.report.reqP99Us)
           << " ack_early_drop_share="
           << fmt(ratio(l.switchAck.droppedEarly, l.switchAck.offered()))
           << '\n';
        std::vector<double> run;
        for (const LegOutcome& x : s.untraced) run.push_back(x.cpu.run);
        os << "run_cpu_s IQR/median within this invocation: " << fmt(iqrShare(run)) << '\n';
    }
    return os.str();
}

std::string resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) os << ", ";
        os << '"' << metrics[i].name << "\": {\"value\": " << fmt(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

}  // namespace perfbench
