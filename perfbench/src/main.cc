/**
 * @file
 * uhll_perfbench: the repository benchmark.
 *
 *   uhll_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 sets the workload up repeatedly (setup_s is the
 * median), then runs its closed loop for S seconds and reports the
 * end-to-end metrics. --trace 1 sets up once, alternates untraced and
 * traced half-second blocks for S seconds (trace.overhead), then
 * sweeps every layer from outside and reports the per-layer metrics;
 * its spans are written under kOutDir, relative to the working
 * directory (the checkout root when run.py starts it). Every op is
 * checked against a reference computed before the timed phase; any
 * mismatch makes the run exit 1.
 *
 * Before the result, one JSON line records the host (CPU, nproc,
 * compiler, build type) and a host-speed probe taken before and after
 * the timed phase, so host drift shows as host drift. The last line
 * of stdout is the result object.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <sys/stat.h>

#include "bench.hh"
#include "layers.hh"

#include "proc/worker.hh"
#include "support/logging.hh"

using namespace pb;

namespace {

// setup_s is the median of at least kMinSetups set-ups spanning at
// least kMinSetupSeconds: a set-up as short as 5 ms would otherwise
// sample only the one or two vCPUs the rotation had reached.
constexpr size_t kMinSetups = 9;
constexpr double kMinSetupSeconds = 2.0;
constexpr const char *kOutDir = ".bench_build/perfbench-out";
constexpr double kTraceBlockSeconds = 0.5;

struct Phase {
    uint64_t ops = 0;
    uint64_t failed = 0;
    uint64_t words = 0;
    double seconds = 0;
    std::vector<double> latencyUs;
};

/** Run the closed loop for @p secs, continuing op numbering at
 *  @p next_op. */
void
runFor(Workload &w, double secs, SpanLog *spans, Phase &ph,
       uint64_t &next_op)
{
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(secs));
    for (;;) {
        const auto t0 = Clock::now();
        if (t0 >= end)
            break;
        const OpOutcome o = w.op(next_op++, spans);
        const double us = seconds(t0, Clock::now()) * 1e6;
        ph.latencyUs.push_back(us);
        ++ph.ops;
        ph.words += o.words;
        if (!o.ok)
            ++ph.failed;
    }
    ph.seconds += seconds(start, Clock::now());
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: uhll_perfbench --workload "
                 "sim_long|sim_faults|compile_fresh|daemon_short "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
}

} // namespace

int
run(int argc, char **argv)
{
    const std::string out_dir = kOutDir;
    std::string workload;
    uint64_t seed = 0;
    double secs = 0;
    int trace = -1;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::strtoull(v, nullptr, 10), have_seed = true;
        else if (k == "--seconds")
            secs = std::strtod(v, nullptr);
        else if (k == "--trace")
            trace = std::atoi(v);
        else
            return usage();
    }
    if (argc % 2 != 1 || !have_seed || secs <= 0 ||
        (trace != 0 && trace != 1))
        return usage();
    std::unique_ptr<Workload> w = makeWorkload(workload, out_dir);
    if (!w)
        return usage();
    ::mkdir(out_dir.c_str(), 0755);
    uhll::setLogLevel(uhll::LogLevel::Quiet);
    const CpuRotation rotation;

    const double probe_before = hostProbeMops();
    w->prepare(seed);

    std::vector<Metric> metrics;
    Phase ph;
    uint64_t next_op = 0;
    uint64_t sweep_failures = 0;
    if (!trace) {
        std::vector<double> setup;
        double setup_total = 0;
        while (setup.size() < kMinSetups || setup_total < kMinSetupSeconds) {
            const auto t0 = Clock::now();
            w->setup();
            setup.push_back(seconds(t0, Clock::now()));
            setup_total += setup.back();
        }
        runFor(*w, secs, nullptr, ph, next_op);
        const double ok = double(ph.ops - ph.failed);
        metrics = {
            {"setup_s", median(setup), "s"},
            {"ops_per_s", double(ph.ops) / ph.seconds, "1/s"},
            {"latency_p50_ms", quantile(ph.latencyUs, 0.50) / 1e3, "ms"},
            {"latency_p95_ms", quantile(ph.latencyUs, 0.95) / 1e3, "ms"},
            {"sim_words_per_s", double(ph.words) / ph.seconds, "1/s"},
            {"sim_cycles", double(w->simCycles()), "cycles"},
            {"store_bits", double(w->storeBits()), "bits"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
            {"ok_ratio", ph.ops ? ok / double(ph.ops) : 0, "ratio"},
        };
    } else {
        w->setup();
        // Untraced and traced blocks alternate so host drift falls
        // on both sides of trace.overhead alike.
        Phase plain;
        SpanLog spans;
        while (plain.seconds + ph.seconds < secs) {
            runFor(*w, kTraceBlockSeconds, nullptr, plain, next_op);
            runFor(*w, kTraceBlockSeconds, &spans, ph, next_op);
        }
        const double overhead =
            1.0 - (double(ph.ops) / ph.seconds)
                      / (double(plain.ops) / plain.seconds);
        ph.ops += plain.ops;
        ph.failed += plain.failed;

        LayerSweep sweep(seed, out_dir, spans);
        w->sweep(sweep);
        sweep_failures = sweep.failures();
        sweep.set("trace.overhead", overhead, "ratio");
        for (const auto &[name, v] : sweep.values())
            metrics.push_back({name, v.value, v.unit});
        const std::string path = out_dir + "/spans-" + workload + "-s" +
                                 std::to_string(seed) + ".json";
        std::ofstream(path) << spans.chromeJson() << "\n";
    }
    const double probe_after = hostProbeMops();

    std::printf("{\"host\": %s, \"probe_mops_before\": %.6g, "
                "\"probe_mops_after\": %.6g, \"ops\": %llu, "
                "\"latency_samples\": %zu}\n",
                hostFingerprintJson().c_str(), probe_before, probe_after,
                (unsigned long long)ph.ops, ph.latencyUs.size());
    const uint64_t failed = ph.failed + sweep_failures;
    printResult(failed == 0, ph.ops, failed, metrics);
    return failed == 0 ? 0 : 1;
}

int
main(int argc, char **argv)
{
    // WorkerPool self-execs this binary for its worker processes.
    if (uhll::isWorkerInvocation(argc, argv))
        return uhll::runWorkerFromArgv(argc, argv);

    // The benchmark is one client thread of its own, as jobs run on
    // the batch runner's pool threads and the daemon's connection
    // threads: on the main thread glibc hands each job's 1 MiB of
    // memory image back to the kernel and faults it in again (~220
    // page faults per job), which cost ~0.45 ms per compile_fresh op
    // and moved with the host's memory load.
    int rc = 1;
    std::thread([&] {
        try {
            rc = run(argc, argv);
        } catch (const uhll::FatalError &e) {
            std::fprintf(stderr, "uhll_perfbench: %s\n", e.what());
        }
    }).join();
    return rc;
}
