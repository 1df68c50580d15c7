/**
 * @file
 * The four workloads. Each is a closed loop with one client: the
 * next op starts when the previous one has returned and been checked.
 *
 *   sim_long       cached long-loop jobs, JIT on: jit + machine
 *   sim_faults     the same jobs under the recoverable fault mix: the
 *                  JIT stands down, interpreter + fault/ECC work
 *   compile_fresh  never-cached generated programs: frontends,
 *                  codegen, regalloc, compaction, decode, cache writes
 *   daemon_short   25-job batch requests to an in-process daemon:
 *                  framing, manifest, BatchRunner, report render
 */

#include <unistd.h>

#include "bench.hh"
#include "layers.hh"
#include "programs.hh"

#include "driver/batch.hh"
#include "fuzz/generator.hh"
#include "obs/json.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "support/logging.hh"

namespace pb {

using namespace uhll;

namespace {

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &v, FuzzRng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** Exact per-pass counts of a program set. */
struct PassCounts {
    uint64_t cycles = 0;
    uint64_t bits = 0;
};

// ----------------------------------------------------------------
// sim_long / sim_faults
// ----------------------------------------------------------------

class SimWorkload : public Workload
{
  public:
    explicit SimWorkload(bool faults) : faults_(faults) {}

    void
    prepare(uint64_t seed) override
    {
        Toolchain machines;
        progs_ = longLoopPrograms(machines, seed, faults_);
        // Blocks of 13: every job once plus job 0 again, shuffled.
        // An odd block keeps the latency median inside one job's
        // cluster instead of on the edge between two.
        FuzzRng rng(seed * 0x9E3779B97F4A7C15ULL + 13);
        for (int b = 0; b < 4096; ++b) {
            std::vector<uint32_t> block;
            for (uint32_t j = 0; j < progs_.size(); ++j)
                block.push_back(j);
            block.push_back(0);
            shuffle(block, rng);
            seq_.insert(seq_.end(), block.begin(), block.end());
        }
    }

    void
    setup() override
    {
        tc_ = std::make_unique<Toolchain>();
        counts_ = {};
        // Compile + decode every artefact, then one warm pass so the
        // shared JIT region caches hold their hot regions.
        for (const Program &p : progs_)
            tc_->compile(p.job);
        for (const Program &p : progs_) {
            const JobResult r = tc_->run(p.job);
            if (!resultMatches(r, *p.ref))
                fatal("perfbench: %s: warm run differs from the "
                      "reference",
                      p.job.name.c_str());
            counts_.cycles += r.sim.cycles;
            counts_.bits += r.artefact->store().sizeBits();
        }
    }

    OpOutcome
    op(uint64_t i, SpanLog *spans) override
    {
        const uint32_t j = seq_[i % seq_.size()];
        const double t0 = spans ? spans->nowUs() : 0;
        const JobResult r = tc_->run(progs_[j].job);
        if (spans)
            spans->add("driver", "Toolchain::run", t0, i);
        return {resultMatches(r, *progs_[j].ref), r.sim.wordsExecuted};
    }

    uint64_t simCycles() const override { return counts_.cycles; }
    uint64_t storeBits() const override { return counts_.bits; }

    void
    sweep(LayerSweep &s) override
    {
        std::vector<Job> jobs;
        std::vector<std::string> manifest;
        for (const Program &p : progs_) {
            jobs.push_back(p.job);
            manifest.push_back(p.manifestJob);
        }
        s.compileSide(jobs);
        s.set("trace.attributed", s.machineSide(jobs, false), "ratio");
        std::vector<Job> sequence;
        for (size_t k = 0; k < 13; ++k)
            sequence.push_back(progs_[seq_[k]].job);
        s.cacheSide(sequence, 0);
        s.serviceSide(manifestOf(manifest), nullptr);
        s.procSide(manifestOf(manifest));
    }

  private:
    bool faults_;
    std::vector<Program> progs_;
    std::vector<uint32_t> seq_;
    std::unique_ptr<Toolchain> tc_;
    PassCounts counts_;
};

// ----------------------------------------------------------------
// compile_fresh
// ----------------------------------------------------------------

class CompileWorkload : public Workload
{
  public:
    void
    prepare(uint64_t seed) override
    {
        Toolchain ref_tc;
        ref_tc.setCacheCapBytes(1);     // references keep nothing
        progs_ = compileStream(ref_tc, kStream);
        // The cache holds a quarter of the stream; cycling through
        // it in one fixed order evicts each artefact long before its
        // next turn, so every op compiles and inserts.
        uint64_t footprint = 0;
        for (const Program &p : progs_)
            footprint += ref_tc.compile(p.job)->approxBytes()
                         + p.job.source.size();
        cap_ = footprint / 4;
        FuzzRng rng(seed * 0x9E3779B97F4A7C15ULL + 5);
        for (uint32_t j = 0; j < progs_.size(); ++j)
            order_.push_back(j);
        shuffle(order_, rng);
    }

    void
    setup() override
    {
        tc_ = std::make_unique<Toolchain>();
        tc_->setCacheCapBytes(cap_);
        counts_ = {};
        for (uint32_t j : order_) {
            const JobResult r = tc_->run(progs_[j].job);
            if (!resultMatches(r, *progs_[j].ref))
                fatal("perfbench: %s: warm run differs from "
                      "fuzzGolden",
                      progs_[j].job.name.c_str());
            counts_.cycles += r.sim.cycles;
            counts_.bits += r.artefact->store().sizeBits();
        }
    }

    OpOutcome
    op(uint64_t i, SpanLog *spans) override
    {
        const uint32_t j = order_[i % order_.size()];
        const double t0 = spans ? spans->nowUs() : 0;
        const JobResult r = tc_->run(progs_[j].job);
        if (spans)
            spans->add("driver", "Toolchain::run", t0, i);
        return {resultMatches(r, *progs_[j].ref), r.sim.wordsExecuted};
    }

    uint64_t simCycles() const override { return counts_.cycles; }
    uint64_t storeBits() const override { return counts_.bits; }

    void
    sweep(LayerSweep &s) override
    {
        // Probe a fixed slice of the stream: the first kProbe
        // programs in stream order cover every frontend x machine.
        std::vector<Job> jobs;
        std::vector<std::string> manifest;
        for (uint32_t j = 0; j < kProbe; ++j) {
            jobs.push_back(progs_[j].job);
            manifest.push_back(progs_[j].manifestJob);
        }
        s.compileSide(jobs);
        s.set("trace.attributed", s.machineSide(jobs, true), "ratio");
        std::vector<Job> sequence;
        for (uint32_t j : order_)
            sequence.push_back(progs_[j].job);
        s.cacheSide(sequence, cap_);
        s.serviceSide(manifestOf(manifest), nullptr);
        s.procSide(manifestOf(manifest));
    }

  private:
    static constexpr unsigned kStream = 300;
    static constexpr uint32_t kProbe = 30;
    std::vector<Program> progs_;
    std::vector<uint32_t> order_;
    uint64_t cap_ = 0;
    std::unique_ptr<Toolchain> tc_;
    PassCounts counts_;
};

// ----------------------------------------------------------------
// daemon_short
// ----------------------------------------------------------------

class DaemonWorkload : public Workload
{
  public:
    explicit DaemonWorkload(std::string out_dir)
        : socket_(out_dir + "/perfbench-" + std::to_string(getpid())
                  + ".sock")
    {}

    ~DaemonWorkload() override { stop(); }

    void
    prepare(uint64_t seed) override
    {
        // The 25-job E1 workload matrix, in a seeded order.
        std::vector<std::string> jobs;
        for (const Job &j : workloadMatrixJobs()) {
            JsonWriter w(false);
            w.beginObject();
            w.value("workload", j.workload);
            w.value("machine", j.machine);
            if (j.hand)
                w.value("hand", true);
            w.endObject();
            jobs.push_back(w.str());
        }
        FuzzRng rng(seed * 0x9E3779B97F4A7C15ULL + 25);
        shuffle(jobs, rng);
        manifest_ = manifestOf(jobs);
        JsonWriter body(false);
        body.beginObject();
        body.raw("manifest", manifest_);
        body.value("timings", false);
        body.endObject();
        body_ = body.str();

        // Reference: the same manifest rendered by an in-process
        // BatchRunner.
        Toolchain ref_tc;
        const BatchReport rep = BatchRunner(ref_tc, 1).run(
            parseManifest(JsonValue::parse(manifest_), ""));
        if (!rep.allOk())
            fatal("perfbench: the reference batch failed");
        reference_ = rep.toJson(true, false) + "\n";
        for (const JobResult &r : rep.results) {
            wordsPerOp_ += r.sim.wordsExecuted;
            counts_.cycles += r.sim.cycles;
            counts_.bits += r.artefact->store().sizeBits();
        }
    }

    void
    setup() override
    {
        stop();
        ServiceConfig cfg;
        cfg.socketPath = socket_;
        cfg.workers = 1;        // one batch thread
        daemon_ = std::make_unique<ServiceDaemon>(cfg);
        std::string err;
        if (!daemon_->start(&err))
            fatal("perfbench: daemon start: %s", err.c_str());
        client_ = std::make_unique<ServiceClient>();
        if (!client_->connectTo(socket_, &err))
            fatal("perfbench: connect: %s", err.c_str());
        if (!op(0, nullptr).ok)
            fatal("perfbench: warm request differs from the "
                  "reference");
    }

    OpOutcome
    op(uint64_t i, SpanLog *spans) override
    {
        ServiceResponse resp, pong;
        std::string err;
        const double t0 = spans ? spans->nowUs() : 0;
        const bool sent = client_->request(
            "batch", "bench", std::to_string(i), body_, &resp, &err);
        // The daemon answers the ping once it has finished with the
        // batch (one connection is served in order), so every op pays
        // for its own request's teardown. Without it, whether the
        // teardown landed in this op or the next depended on which of
        // the two threads sharing the CPU the scheduler ran first, and
        // the latency median flipped between 2.7 and 4.1 ms.
        const bool ponged =
            client_->request("ping", "bench", "", "{}", &pong, &err);
        if (spans)
            spans->add("service", "ServiceClient::request", t0, i);
        const bool ok = sent && ponged && resp.ok && pong.ok
                        && resp.follow == reference_;
        return {ok, ok ? wordsPerOp_ : 0};
    }

    uint64_t simCycles() const override { return counts_.cycles; }
    uint64_t storeBits() const override { return counts_.bits; }

    void
    sweep(LayerSweep &s) override
    {
        const std::vector<Job> jobs =
            parseManifest(JsonValue::parse(manifest_), "");
        s.compileSide(jobs);
        s.machineSide(jobs, false);
        s.cacheSide(jobs, 0);
        s.set("trace.attributed", s.serviceSide(manifest_, daemon_.get()),
              "ratio");
        s.procSide(manifest_);
    }

  private:
    void
    stop()
    {
        client_.reset();
        if (daemon_) {
            daemon_->stop();
            daemon_.reset();
        }
    }

    std::string socket_;
    std::string manifest_;
    std::string body_;
    std::string reference_;
    uint64_t wordsPerOp_ = 0;
    PassCounts counts_;
    std::unique_ptr<ServiceDaemon> daemon_;
    std::unique_ptr<ServiceClient> client_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const std::string &out_dir)
{
    if (name == "sim_long")
        return std::make_unique<SimWorkload>(false);
    if (name == "sim_faults")
        return std::make_unique<SimWorkload>(true);
    if (name == "compile_fresh")
        return std::make_unique<CompileWorkload>();
    if (name == "daemon_short")
        return std::make_unique<DaemonWorkload>(out_dir);
    return nullptr;
}

} // namespace pb
