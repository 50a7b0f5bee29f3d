// Tests of the benchmark's own helpers and of its workload definitions.
//
//   perfbench_selftest            (or: python3 perfbench/run.py --selftest)
//
// Exits non-zero and names each failed check. The workload checks run
// real simulations (a few seconds in all).
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "legs.hpp"
#include "report.hpp"
#include "src/aqm/factory.hpp"
#include "src/core/runner.hpp"
#include "src/net/ecn.hpp"
#include "stats.hpp"
#include "timing_queue.hpp"
#include "workloads.hpp"

using namespace ecnsim;
using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                                  \
    do {                                                                             \
        if (!(cond)) {                                                               \
            ++g_failures;                                                            \
            std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
        }                                                                            \
    } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

// Expected values are Python's statistics.median / quantiles(v, n=4).
void testMedianAndQuartiles() {
    CHECK(near(median({1, 2, 3, 4}), 2.5));
    CHECK(near(median({5, 1, 4, 2, 3}), 3.0));
    const auto q4 = quartiles({1, 2, 3, 4});
    CHECK(near(q4[0], 1.25) && near(q4[1], 2.5) && near(q4[2], 3.75));
    const auto q5 = quartiles({5, 1, 4, 2, 3});
    CHECK(near(q5[0], 1.5) && near(q5[1], 3.0) && near(q5[2], 4.5));
    const auto q7 = quartiles({3.5, 1.25, 9, 7, 2, 8, 6});
    CHECK(near(q7[0], 2.0) && near(q7[1], 6.0) && near(q7[2], 8.0));
    const auto q2 = quartiles({10, 20});
    CHECK(near(q2[0], 7.5) && near(q2[1], 15.0) && near(q2[2], 22.5));
    CHECK(near(iqrShare({1, 2, 3, 4}), (3.75 - 1.25) / 2.5));
    CHECK(near(iqrShare({7}), 0.0));
    bool threw = false;
    try {
        median({});
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);
}

void testNamePatterns() {
    CHECK(validMetricName("setup_s"));
    CHECK(validMetricName("obs.profile.link-transmit_ms"));
    CHECK(validMetricName("9lives"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName("_private"));
    CHECK(!validMetricName(".dot"));
    CHECK(!validMetricName("has space"));
    CHECK(!validMetricName("slash/name"));
    CHECK(!validMetricName(std::string(65, 'a')));
    CHECK(validMetricName(std::string(64, 'a')));
    CHECK(validUnit("ms") && validUnit("1/s") && validUnit("%") && validUnit("count"));
    CHECK(!validUnit("") && !validUnit("m s") && !validUnit(std::string(17, 'x')));
}

/// Every name the benchmark can emit is valid and used once.
void testEmittedNames() {
    Samples s;
    s.untraced.emplace_back();
    s.traced.emplace_back();
    s.obsFullCpu.push_back(1.0);
    s.obsFull.emplace_back();
    std::set<std::string> seen;
    const auto check = [&seen](const std::vector<Metric>& ms) {
        for (const Metric& m : ms) {
            CHECK(validMetricName(m.name));
            CHECK(validUnit(m.unit));
            CHECK(seen.insert(m.name).second);
        }
    };
    const auto e2e = endToEndMetrics(s);
    check(e2e);
    CHECK(e2e.size() == 3);
    const auto layers = perLayerMetrics(s, 0.0);
    check(layers);
    CHECK(layers.size() == 42);
}

/// Records which Queue virtuals were reached through a wrapper.
class SpyQueue final : public Queue {
public:
    mutable std::set<std::string> calls;

    EnqueueOutcome enqueue(PacketPtr, Time) override {
        return note("enqueue", EnqueueOutcome::Enqueued);
    }
    PacketPtr dequeue(Time) override { return note("dequeue", PacketPtr{}); }
    std::size_t lengthPackets() const override { return note("lengthPackets", std::size_t{3}); }
    std::int64_t lengthBytes() const override { return note("lengthBytes", std::int64_t{4}); }
    std::size_t capacityPackets() const override { return note("capacityPackets", std::size_t{5}); }
    bool empty() const override { return note("empty", false); }
    std::vector<const Packet*> contents() const override {
        return note("contents", std::vector<const Packet*>{});
    }
    const QueueStats& stats() const override { return note("stats", std::cref(stats_)).get(); }
    std::string name() const override { return note("name", std::string("spy")); }
    std::uint64_t fastPathHits() const override { return note("fastPathHits", std::uint64_t{6}); }
    bool checkConsistent(std::string& why) const override {
        why = "spy";
        return note("checkConsistent", false);
    }

private:
    template <typename T>
    T note(const char* what, T v) const {
        calls.insert(what);
        return v;
    }
    QueueStats stats_;
};

void testDecoratorForwardsEveryVirtual() {
    LayerTally tally;
    SampleGate gate;
    auto spy = std::make_unique<SpyQueue>();
    SpyQueue* raw = spy.get();
    TimingQueue q(std::move(spy), tally, gate);
    q.enqueue(makePacket(), Time::zero());
    q.dequeue(Time::zero());
    CHECK(q.lengthPackets() == 3);
    CHECK(q.lengthBytes() == 4);
    CHECK(q.capacityPackets() == 5);
    CHECK(!q.empty());
    CHECK(q.contents().empty());
    CHECK(&q.stats() == &raw->stats());
    CHECK(q.name() == "spy");
    CHECK(q.fastPathHits() == 6);
    std::string why;
    CHECK(!q.checkConsistent(why) && why == "spy");
    CHECK(raw->calls.size() == 11);
    CHECK(tally.enqueueCalls == 1 && tally.dequeueCalls == 1);
}

PacketPtr dataPacket(std::uint64_t seq, bool ect) {
    PacketPtr p = makePacket();
    p->isTcp = true;
    p->tcpFlags = tcp_flags::Ack;
    p->payloadBytes = 1460;
    p->sizeBytes = 1500;
    p->seq = seq;
    p->ecn = ect ? EcnCodepoint::Ect0 : EcnCodepoint::NotEct;
    return p;
}

/// A wrapped RED queue decides, counts and reports exactly like a bare
/// one fed the same packets with the same RNG seed.
void testDecoratorIsTransparentOnRed() {
    QueueConfig qc;
    qc.kind = QueueKind::Red;
    qc.capacityPackets = 100;
    qc.targetDelay = Time::microseconds(100);
    Rng rngBare(42), rngWrapped(42);
    std::unique_ptr<Queue> bare = makeQueue(qc, rngBare);
    LayerTally tally;
    SampleGate gate;
    TimingQueue wrapped(makeQueue(qc, rngWrapped), tally, gate);
    bool sameOutcomes = true;
    constexpr int kPackets = 5000;
    for (int i = 0; i < kPackets; ++i) {
        const Time now = Time::microseconds(i);
        const bool ect = i % 3 != 0;
        sameOutcomes = sameOutcomes && bare->enqueue(dataPacket(i, ect), now) ==
                                           wrapped.enqueue(dataPacket(i, ect), now);
        if (i % 2 == 0) {  // drain slower than the arrivals so RED engages
            const PacketPtr a = bare->dequeue(now);
            const PacketPtr b = wrapped.dequeue(now);
            sameOutcomes = sameOutcomes && (a == nullptr) == (b == nullptr);
        }
    }
    CHECK(sameOutcomes);
    const auto tb = bare->stats().total();
    const auto tw = wrapped.stats().total();
    CHECK(tb.enqueued == tw.enqueued && tb.marked == tw.marked);
    CHECK(tb.droppedEarly == tw.droppedEarly && tb.droppedOverflow == tw.droppedOverflow);
    CHECK(tb.marked + tb.droppedEarly > 0);  // the AQM actually acted
    CHECK(bare->fastPathHits() == wrapped.fastPathHits());
    CHECK(bare->lengthPackets() == wrapped.lengthPackets());
    CHECK(bare->lengthBytes() == wrapped.lengthBytes());
    CHECK(bare->name() == wrapped.name());
    std::string why;
    CHECK(wrapped.checkConsistent(why));
    CHECK(tally.enqueueCalls == static_cast<std::uint64_t>(kPackets));
    CHECK(tally.enqueueCalls == tw.offered());
    // About 1 in 16 calls is timed.
    const double share =
        static_cast<double>(tally.sampledCalls) / static_cast<double>(tally.calls());
    CHECK(share > 0.04 && share < 0.09);
}

void testDecoratorRefusesObs() {
    struct NullObserver final : QueueObserver {
        void onEnqueue(const Queue&, const Packet&, EnqueueOutcome, Time) override {}
        void onDequeue(const Queue&, const Packet&, Time) override {}
    } observer;
    LayerTally tally;
    SampleGate gate;
    auto spy = std::make_unique<SpyQueue>();
    spy->setObserver(&observer);
    bool threw = false;
    try {
        TimingQueue q(std::move(spy), tally, gate);
    } catch (const std::logic_error&) {
        threw = true;
    }
    CHECK(threw);

    ExperimentConfig cfg = makeWorkloadConfig("kv_open", 1);
    cfg.obs.applyMode("full");
    threw = false;
    try {
        runPhased(cfg, true);
    } catch (const std::logic_error&) {
        threw = true;
    }
    CHECK(threw);
}

/// Per workload: the phase-timed construction (untraced and traced)
/// reproduces runExperiment's digest, the decorator's count matches the
/// queues' own, and two seeds give two different digests.
void testWorkloads() {
    for (const WorkloadDef& w : workloads()) {
        const ExperimentConfig cfg = w.make(1);
        const ExperimentResult ref = runExperiment(cfg);
        const LegOutcome untraced = runPhased(cfg, false);
        const LegOutcome traced = runPhased(cfg, true);
        std::fprintf(stderr, "%s: digest 0x%016llx\n", w.name.c_str(),
                     static_cast<unsigned long long>(ref.telemetryDigest));
        CHECK(untraced.digest == ref.telemetryDigest);
        CHECK(traced.digest == ref.telemetryDigest);
        CHECK(legFailure(cfg, untraced, ref.telemetryDigest).empty());
        CHECK(legFailure(cfg, traced, ref.telemetryDigest).empty());
        CHECK(traced.aqm.enqueueCalls == traced.switchTotal.offered());
        CHECK(untraced.events == traced.events);
        CHECK(runExperiment(w.make(2)).telemetryDigest != ref.telemetryDigest);
    }
}

}  // namespace

int main() {
    testMedianAndQuartiles();
    testNamePatterns();
    testEmittedNames();
    testDecoratorForwardsEveryVirtual();
    testDecoratorIsTransparentOnRed();
    testDecoratorRefusesObs();
    testWorkloads();
    if (g_failures > 0) {
        std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
        return 1;
    }
    std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
    return 0;
}
