/**
 * @file
 * The traced run's layer sweep: each layer's public functions called
 * from outside, on the workload's own programs, each call a span.
 *
 * Timings are per call, in microseconds: the mean over the probed
 * programs of each program's median over several repetitions.
 * Counts are sums over the probed programs and repeat exactly.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "bench.hh"
#include "driver/toolchain.hh"

namespace uhll {
class ServiceDaemon;
}

namespace pb {

/** One per-layer metric as the sweep set it. */
struct LayerValue {
    double value = 0;
    std::string unit;
};

class LayerSweep
{
  public:
    LayerSweep(uint64_t seed, const std::string &out_dir, SpanLog &spans)
        : seed_(seed), outDir_(out_dir), spans_(spans)
    {}

    /** lang, masm, mir, codegen, regalloc, schedule, machine.decode,
     *  driver.compile_miss/hit. Frontends @p jobs do not use are
     *  probed on seeded generated programs instead. */
    void compileSide(const std::vector<uhll::Job> &jobs);

    /** machine.* (but decode), fault.*, jit.*,
     *  driver.job_overhead_us. Returns the share of an op -- one
     *  Toolchain::run of one of @p jobs, compiling it afresh when
     *  @p fresh, else from the cache -- that the op's leaf probes
     *  explain: compile + memory image + simulator construction +
     *  initial checkpoint + run, over the whole Toolchain::run, each
     *  timed in turn within every repetition. */
    double machineSide(const std::vector<uhll::Job> &jobs, bool fresh);

    /** driver.cache_hit_ratio and driver.cache_evictions over one
     *  counted pass of @p sequence after a warm pass, in a fresh
     *  Toolchain capped at @p cap bytes (0 = the default cap). */
    void cacheSide(const std::vector<uhll::Job> &sequence,
                   uint64_t cap);

    /** driver.manifest_parse/batch, obs.*, service.*. Uses @p daemon
     *  when non-null, else starts one of its own. Returns the share
     *  of a batch request plus its closing ping, as the workload
     *  sends them, that the request's leaf probes explain: frame +
     *  manifest parse + batch + report render, over the roundtrip
     *  timed in turn with them (median over the repetitions). */
    double serviceSide(const std::string &manifest,
                       uhll::ServiceDaemon *daemon);

    /** proc.*: a one-worker WorkerPool running @p manifest's jobs. */
    void procSide(const std::string &manifest);

    void
    set(const std::string &name, double v, const char *unit)
    {
        values_[name] = {v, unit};
    }
    /** Every metric set so far, by name. */
    const std::map<std::string, LayerValue> &values() const
    {
        return values_;
    }

    /** Probe outputs that disagreed with the workload's own. */
    uint64_t failures() const { return failures_; }

  private:
    /** Time one call of @p f, recorded as a span, in µs. */
    template <typename F>
    double once(const char *layer, const char *name, F &&f);

    /** Median of kReps calls of @p f (each a span), in µs. */
    template <typename F>
    double timed(const char *layer, const char *name, F &&f);

    uint64_t seed_;
    std::string outDir_;
    SpanLog &spans_;
    uint64_t probe_ = 0;    //!< span op id of the current probe
    uint64_t failures_ = 0;
    std::map<std::string, LayerValue> values_;
};

} // namespace pb

#endif // PERFBENCH_LAYERS_HH
