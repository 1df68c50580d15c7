/**
 * @file
 * Shared declarations of the repository benchmark (uhll_perfbench).
 *
 * A Workload owns its seeded inputs, their reference outputs and the
 * state one set-up builds; the runner in main.cc times set-up and a
 * closed loop of ops over it. The traced run (layers.cc) calls every
 * layer's public functions from outside on the workload's programs.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Linear-interpolated quantile @p q in [0, 1] of @p v (copied). */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One call into a layer's public function, recorded from outside. */
struct Span {
    const char *layer;
    const char *name;
    double startUs;
    double endUs;
    uint64_t op;
};

/** In-memory span log; written out once, when the run ends. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

    double nowUs() const { return seconds(origin_, Clock::now()) * 1e6; }

    void
    add(const char *layer, const char *name, double start_us,
        uint64_t op)
    {
        spans_.push_back({layer, name, start_us, nowUs(), op});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace_event JSON of every span. */
    std::string chromeJson() const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Outcome of one op. */
struct OpOutcome {
    bool ok = false;
    uint64_t words = 0;     //!< microwords simulated by the op
};

class LayerSweep;

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs and reference outputs from @p seed (untimed). */
    virtual void prepare(uint64_t seed) = 0;

    /** One full set-up, from nothing to ready for the first op;
     *  drops the state of any earlier set-up first. */
    virtual void setup() = 0;

    /** Run op @p i and check it against its reference. Calls into a
     *  layer are recorded in @p spans when it is non-null. */
    virtual OpOutcome op(uint64_t i, SpanLog *spans) = 0;

    /** Simulated cycles of one pass over the program set. */
    virtual uint64_t simCycles() const = 0;
    /** Control-store bits of the program set. */
    virtual uint64_t storeBits() const = 0;

    /** Traced run: set every per-layer metric but trace.overhead. */
    virtual void sweep(LayerSweep &s) = 0;
};

/** The four workloads, by BENCHMARK.json name (null if unknown). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const std::string &out_dir);

/**
 * While alive, moves every thread of the process to the next CPU it
 * may run on, round robin, every 100 ms. The host's vCPUs run at
 * different speeds that change over seconds (other tenants' load);
 * a run that stays where the scheduler put it measures whichever
 * vCPUs it landed on, and its throughput moved by up to 30% from run
 * to run. Rotating gives every run the same mix of all of them.
 * Threads that hand work to each other share the CPU, so a handoff
 * never waits for an idle vCPU to wake.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    void moveAll(size_t slot);

    std::vector<int> cpus_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;     //!< guarded by mu_
    std::thread thread_;    //!< last: uses the members above
};

/** @name Host (common.cc) */
/// @{
/** Peak resident set of this process in MiB. */
double peakRssMb();
/** CPU model, nproc, compiler and build type as a JSON object. */
std::string hostFingerprintJson();
/** Host-speed probe that touches no uHLL code: millions of
 *  iterations per second of a fixed integer loop. */
double hostProbeMops();
/// @}

} // namespace pb

#endif // PERFBENCH_BENCH_HH
