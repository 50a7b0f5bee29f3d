// Outside-in layer timing: a forwarding Queue decorator that counts every
// call into a queue discipline and times a random sample of them.
//
// The decorator is transparent: it forwards every Queue virtual, keeps no
// simulation state, and never draws from the simulator's RNG, so a run
// through wrapped queues produces the same telemetry digest as a run
// without them (the benchmark checks this on every invocation).
//
// It must never be combined with obs tracing. Queue::setObserver is not
// virtual, so a flight-recorder tap attached through Network would land on
// the wrapper while the wrapped discipline (which is what calls
// observer()) records nothing. Traced legs therefore refuse obs-enabled
// configs, and the constructor refuses an already-observed inner queue.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/queue.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Call counts and sampled busy time of one layer (all queues of a kind).
struct LayerTally {
    std::uint64_t enqueueCalls = 0;
    std::uint64_t dequeueCalls = 0;
    std::uint64_t sampledCalls = 0;
    std::int64_t sampledNs = 0;  ///< raw sum, clock cost not yet removed

    std::uint64_t calls() const { return enqueueCalls + dequeueCalls; }

    /// Estimated self time in seconds: the sampled time, less the cost of
    /// the clock reads it includes, scaled up to every call.
    double selfSeconds(double clockCostNs) const {
        if (sampledCalls == 0) return 0.0;
        double ns =
            static_cast<double>(sampledNs) - clockCostNs * static_cast<double>(sampledCalls);
        if (ns < 0.0) ns = 0.0;
        return ns * static_cast<double>(calls()) / static_cast<double>(sampledCalls) * 1e-9;
    }
};

/// Picks which calls get timed: 1 in 16 on average, from a private
/// xorshift stream. Random rather than every-16th so the sample cannot
/// alias with the enqueue/dequeue alternation of a busy port.
class SampleGate {
public:
    static constexpr std::uint64_t kMask = 15;

    explicit SampleGate(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : s_(seed | 1) {}

    bool take() {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return (s_ & kMask) == 0;
    }

private:
    std::uint64_t s_;
};

/// Mean cost, in ns, of the steady_clock read pair that brackets a sampled
/// call (measured on an empty interval).
inline double calibrateClockCostNs() {
    constexpr int kReads = 200000;
    std::int64_t sum = 0;
    for (int i = 0; i < kReads; ++i) {
        const auto t0 = SteadyClock::now();
        sum += (SteadyClock::now() - t0).count();
    }
    return static_cast<double>(sum) / kReads;
}

class TimingQueue final : public ecnsim::Queue {
public:
    TimingQueue(std::unique_ptr<ecnsim::Queue> inner, LayerTally& tally, SampleGate& gate)
        : inner_(std::move(inner)), tally_(tally), gate_(gate) {
        if (inner_ == nullptr) throw std::invalid_argument("TimingQueue: null inner queue");
        if (inner_->observer() != nullptr) {
            throw std::logic_error("TimingQueue: inner queue already has an obs observer");
        }
    }

    ecnsim::EnqueueOutcome enqueue(ecnsim::PacketPtr pkt, ecnsim::Time now) override {
        ++tally_.enqueueCalls;
        if (!gate_.take()) return inner_->enqueue(std::move(pkt), now);
        const auto t0 = SteadyClock::now();
        const ecnsim::EnqueueOutcome o = inner_->enqueue(std::move(pkt), now);
        record(t0);
        return o;
    }

    ecnsim::PacketPtr dequeue(ecnsim::Time now) override {
        ++tally_.dequeueCalls;
        if (!gate_.take()) return inner_->dequeue(now);
        const auto t0 = SteadyClock::now();
        ecnsim::PacketPtr p = inner_->dequeue(now);
        record(t0);
        return p;
    }

    std::size_t lengthPackets() const override { return inner_->lengthPackets(); }
    std::int64_t lengthBytes() const override { return inner_->lengthBytes(); }
    std::size_t capacityPackets() const override { return inner_->capacityPackets(); }
    bool empty() const override { return inner_->empty(); }
    std::vector<const ecnsim::Packet*> contents() const override { return inner_->contents(); }
    const ecnsim::QueueStats& stats() const override { return inner_->stats(); }
    std::string name() const override { return inner_->name(); }
    std::uint64_t fastPathHits() const override { return inner_->fastPathHits(); }
    bool checkConsistent(std::string& why) const override { return inner_->checkConsistent(why); }

private:
    void record(SteadyClock::time_point t0) {
        tally_.sampledNs += (SteadyClock::now() - t0).count();
        ++tally_.sampledCalls;
    }

    std::unique_ptr<ecnsim::Queue> inner_;
    LayerTally& tally_;
    SampleGate& gate_;
};

/// Wrap every queue `factory` builds; `tally` and `gate` must outlive them.
inline ecnsim::QueueFactory timedFactory(ecnsim::QueueFactory factory, LayerTally& tally,
                                         SampleGate& gate) {
    return [factory = std::move(factory), &tally, &gate] {
        return std::make_unique<TimingQueue>(factory(), tally, gate);
    };
}

}  // namespace perfbench
