// perfbench — one benchmark invocation on one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --workload NAME --seed N --rss-probe
//
// Runs the workload's experiment repeatedly for S seconds of wall time,
// interleaving legs: an untraced phase-timed leg (set-up and run CPU
// time), an obs-full leg through runExperiment, and with --trace 1 a
// traced leg through TimingQueue. Before the loop it takes a reference
// digest from runExperiment (the equivalence check) and, with --trace 0,
// runs one traced leg so every invocation checks that all leg kinds agree
// on the digest. Prints a summary and, as the last line, the result JSON.
//
// --rss-probe runs one untraced leg in this fresh process and prints its
// digest, failure reason and peak RSS; run.py takes peak_rss_mb from
// several such processes.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "legs.hpp"
#include "report.hpp"
#include "src/core/runner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace ecnsim;
using namespace perfbench;

namespace {

/// Variables that change what a run does (ECNSIM_OBS, ECNSIM_LOG) or
/// install an invariant checker in every Simulator (ECNSIM_INVARIANTS).
constexpr const char* kPinnedEnv[] = {"ECNSIM_INVARIANTS", "ECNSIM_OBS", "ECNSIM_LOG"};

/// Legs per invocation never drop below this, however short --seconds is.
constexpr int kMinIterations = 3;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    bool rssProbe = false;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "(--seconds S --trace 0|1 | --rss-probe)\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& v, std::uint64_t max) {
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos || v.size() > 19) {
        usage(flag + ": got '" + v + "': expected a non-negative integer");
    }
    const std::uint64_t n = std::stoull(v);
    if (n > max) usage(flag + ": got '" + v + "': expected at most " + std::to_string(max));
    return n;
}

Args parseArgs(int argc, char** argv) {
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--rss-probe") {
            a.rssProbe = true;
            continue;
        }
        if (i + 1 >= argc) usage(flag + ": missing value");
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, v, ~std::uint64_t{0} >> 1);
            haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = static_cast<int>(parseUnsigned(flag, v, 3600));
            haveSeconds = a.seconds > 0;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1") usage("--trace: got '" + v + "': expected 0 or 1");
            a.trace = v == "1";
            haveTrace = true;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (a.workload.empty() || !haveSeed) usage("--workload and --seed are required");
    if (!a.rssProbe && (!haveSeconds || !haveTrace)) {
        usage("--seconds (>= 1) and --trace are required");
    }
    return a;
}

/// Refuse to time anything while a pinned variable is set; report them all.
void checkEnvironment() {
    std::string found;
    for (const char* name : kPinnedEnv) {
        if (const char* v = std::getenv(name)) found += std::string(" ") + name + "=" + v;
    }
    if (!found.empty()) {
        std::fprintf(stderr, "perfbench: refusing to start, found set:%s\n", found.c_str());
        std::exit(2);
    }
}

int rssProbe(const ExperimentConfig& cfg) {
    const LegOutcome leg = runPhased(cfg, false);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::string why = legFailure(cfg, leg, leg.digest);
    for (char& ch : why) {
        if (ch == '"' || ch == '\\') ch = '\'';
    }
    std::printf("{\"digest\": %llu, \"failure\": \"%s\", \"max_rss_kb\": %ld}\n",
                static_cast<unsigned long long>(leg.digest), why.c_str(), ru.ru_maxrss);
    return 0;
}

class Session {
public:
    Session(ExperimentConfig cfg, bool trace) : cfg_(std::move(cfg)), trace_(trace) {
        obsCfg_ = cfg_;
        obsCfg_.obs.applyMode("full");
    }

    /// The equivalence check: runExperiment's digest for this config and
    /// seed, which every leg must reproduce.
    bool takeReference() {
        ++attempted_;
        try {
            const ExperimentResult r = runExperiment(cfg_);
            refDigest_ = r.telemetryDigest;
            const std::string why = resultFailure(cfg_, r, refDigest_);
            if (why.empty()) return true;
            fail("reference", why);
        } catch (const std::exception& e) {
            fail("reference", e.what());
        }
        return false;
    }

    void phased(bool traced) {
        ++attempted_;
        try {
            LegOutcome leg = runPhased(cfg_, traced);
            const std::string why = legFailure(cfg_, leg, refDigest_);
            if (!why.empty()) return fail(traced ? "traced" : "untraced", why);
            (traced ? samples_.traced : samples_.untraced).push_back(std::move(leg));
        } catch (const std::exception& e) {
            fail(traced ? "traced" : "untraced", e.what());
        }
    }

    void obsFull() {
        ++attempted_;
        try {
            const double t0 = threadCpuSeconds();
            ExperimentResult r = runExperiment(obsCfg_);
            const double cpu = threadCpuSeconds() - t0;
            const std::string why = resultFailure(cfg_, r, refDigest_);
            if (!why.empty()) return fail("obs-full", why);
            samples_.obsFullCpu.push_back(cpu);
            samples_.obsFull.push_back(std::move(r));
        } catch (const std::exception& e) {
            fail("obs-full", e.what());
        }
    }

    int run(int seconds) {
        if (!takeReference()) return finish();
        if (!trace_) phased(true);
        const auto deadline = SteadyClock::now() + std::chrono::seconds(seconds);
        for (int i = 0; i < kMinIterations || SteadyClock::now() < deadline; ++i) {
            // Alternate leg order so neither kind always runs on a warm cache.
            if (i % 2 == 0) {
                phased(false);
                obsFull();
                if (trace_) phased(true);
            } else {
                if (trace_) phased(true);
                obsFull();
                phased(false);
            }
        }
        return finish();
    }

private:
    void fail(const char* leg, const std::string& why) {
        ++failed_;
        std::fprintf(stderr, "perfbench: %s leg failed: %s\n", leg, why.c_str());
    }

    int finish() {
        std::fputs(summaryText(cfg_, refDigest_, samples_).c_str(), stdout);
        std::vector<Metric> metrics;
        try {
            metrics = trace_ ? perLayerMetrics(samples_, calibrateClockCostNs())
                             : endToEndMetrics(samples_);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: no result: %s\n", e.what());
            return 1;
        }
        std::puts(resultLine(failed_ == 0, attempted_, failed_, metrics).c_str());
        return 0;
    }

    ExperimentConfig cfg_;
    ExperimentConfig obsCfg_;
    bool trace_;
    std::uint64_t refDigest_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    Samples samples_;
};

}  // namespace

int main(int argc, char** argv) {
    const Args args = parseArgs(argc, argv);
    checkEnvironment();
    ExperimentConfig cfg;
    try {
        cfg = makeWorkloadConfig(args.workload, args.seed);
        cfg.validate();
    } catch (const std::exception& e) {
        usage(e.what());
    }
    if (args.rssProbe) return rssProbe(cfg);
    return Session(std::move(cfg), args.trace).run(args.seconds);
}
