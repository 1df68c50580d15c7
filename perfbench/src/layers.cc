#include "layers.hh"

#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "codegen/compiler.hh"
#include "driver/batch.hh"
#include "driver/frontend.hh"
#include "fault/fault.hh"
#include "fuzz/generator.hh"
#include "machine/checkpoint.hh"
#include "machine/decoded_store.hh"
#include "obs/json.hh"
#include "proc/pool.hh"
#include "proc/wire.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/logging.hh"

namespace pb {

using namespace uhll;

namespace {

constexpr int kReps = 5;
constexpr uint32_t kMemWords = 0x10000;

/** Mean of @p v (0 when empty). */
double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / double(v.size());
}

uint64_t
mirInsts(const MirProgram &p)
{
    uint64_t n = 0;
    for (uint32_t f = 0; f < p.numFunctions(); ++f)
        for (const BasicBlock &b : p.func(f).blocks)
            n += b.insts.size();
    return n;
}

/** A simulator over @p art set up the way the supervisor's lane
 *  does it: memory image, inputs, baseline. */
struct Lane {
    MainMemory mem;
    std::unique_ptr<FaultInjector> inj;
    std::unique_ptr<MicroSimulator> sim;
    uint32_t entry = 0;

    Lane(const Job &job, const Artefact &art, SimConfig cfg,
         const std::string &plan, uint64_t fault_seed)
        : mem(kMemWords, art.machine->dataWidth())
    {
        if (job.setupMemory)
            job.setupMemory(mem);
        if (!plan.empty()) {
            inj = std::make_unique<FaultInjector>(
                plan == "-" ? FaultPlan::recoverable(fault_seed)
                            : FaultPlan::parse(plan),
                fault_seed);
            cfg.injector = inj.get();
        }
        sim = std::make_unique<MicroSimulator>(art.store(), mem, cfg);
        for (const auto &[n, v] : job.sets)
            art.setVariable(*sim, mem, n, v);
        entry = art.store().entry(job.entry.empty() ? art.defaultEntry()
                                                    : job.entry);
    }
};

SimConfig
jobConfig(const Job &job, const Artefact &art)
{
    SimConfig cfg;
    if (job.maxCycles)
        cfg.maxCycles = job.maxCycles;
    cfg.forceSlowPath = job.forceSlowPath;
    cfg.jit = job.options.jit;
    cfg.jitThreshold = job.options.jitThreshold;
    cfg.jitCache = art.jitCache.get();
    cfg.decoded = art.decoded.get();
    cfg.ecc = job.ecc;
    return cfg;
}

} // namespace

template <typename F>
double
LayerSweep::once(const char *layer, const char *name, F &&f)
{
    const double a = spans_.nowUs();
    f();
    spans_.add(layer, name, a, probe_);
    return spans_.spans().back().endUs - a;
}

template <typename F>
double
LayerSweep::timed(const char *layer, const char *name, F &&f)
{
    std::vector<double> t;
    for (int i = 0; i < kReps; ++i)
        t.push_back(once(layer, name, f));
    return median(std::move(t));
}

void
LayerSweep::compileSide(const std::vector<Job> &jobs)
{
    Toolchain tc;
    std::map<std::string, std::vector<double>> translate;
    std::vector<double> legal, opt, alloc, comp, lower, compact, decode,
        miss, hit;
    uint64_t insts = 0, words = 0, fixups = 0, optimized = 0,
             spilled = 0, spill_ops = 0, saved = 0;

    auto translateUs = [&](const std::string &lang,
                           const std::string &source,
                           const MachineDescription &mach,
                           const FrontendOptions &opts) {
        const Frontend &fe = FrontendRegistry::get(lang);
        translate[lang].push_back(
            timed(lang == "masm" ? "masm" : "lang", "Frontend::translate",
                  [&] { fe.translate(source, mach, opts); }));
    };

    for (const Job &job : jobs) {
        ++probe_;
        const auto machp = tc.machine(job.machine);
        const MachineDescription &mach = *machp;
        translateUs(job.lang, job.source, mach, job.options.frontend);
        Translation tr =
            FrontendRegistry::get(job.lang).translate(job.source, mach,
                                                      job.options.frontend);
        if (tr.isMir()) {
            const MirProgram &prog = *tr.mir;
            insts += mirInsts(prog);
            // Each pass times on its own copy of its input.
            std::vector<MirProgram> in(kReps, prog);
            int k = 0;
            const double l_us = timed("codegen", "legalize", [&] {
                legalize(in[k++], mach);
            });
            MirProgram legal_prog = in[0];
            std::vector<MirProgram> in2(kReps, legal_prog);
            k = 0;
            const double o_us = timed("codegen", "optimizeMir", [&] {
                optimizeMir(in2[k++]);
            });
            const MirProgram &ready = in2[0];
            const GraphColoringAllocator gc;
            Assignment asg;
            const double a_us = timed(
                "regalloc", "GraphColoringAllocator::allocate",
                [&] { asg = gc.allocate(ready, mach); });
            const Compiler compiler(mach);
            CompileOptions on;
            CompileOptions off;
            off.compact = false;
            // Results land in their own slots, so no timed call also
            // destroys the previous one.
            std::vector<std::optional<CompiledProgram>> cp_on(kReps),
                cp_off(kReps);
            k = 0;
            const double compile_us =
                timed("codegen", "Compiler::compile", [&] {
                    cp_on[k++].emplace(compiler.compile(prog, on));
                });
            k = 0;
            const double off_us =
                timed("schedule", "Compiler::compile(compact=false)", [&] {
                    cp_off[k++].emplace(compiler.compile(prog, off));
                });
            legal.push_back(l_us);
            opt.push_back(o_us);
            alloc.push_back(a_us);
            comp.push_back(compile_us);
            compact.push_back(compile_us - off_us);
            lower.push_back(off_us - l_us - o_us - a_us);
            const CompileStats &st = cp_on[0]->stats;
            words += st.words;
            fixups += st.fixupMovs;
            optimized += st.optimized;
            spilled += st.spilledVRegs;
            spill_ops += st.spillLoads + st.spillStores;
            saved += cp_off[0]->stats.words - st.words;
        }

        // Decode, and the driver's cache miss and hit.
        std::vector<std::unique_ptr<Toolchain>> fresh;
        for (int i = 0; i < kReps; ++i) {
            fresh.push_back(std::make_unique<Toolchain>());
            fresh.back()->machine(job.machine);
        }
        int k = 0;
        std::shared_ptr<const Artefact> art;
        miss.push_back(timed("driver", "Toolchain::compile(miss)",
                             [&] { art = fresh[k++]->compile(job); }));
        hit.push_back(timed("driver", "Toolchain::compile(hit)",
                            [&] { fresh[0]->compile(job); }));
        const double d_us =
            timed("machine", "DecodedStore::decodeAll", [&] {
                DecodedStore d(art->store(), *art->machine);
                d.decodeAll();
            });
        decode.push_back(d_us);
    }

    // Frontends this workload does not use: seeded generated
    // programs, one per machine, so every frontend is measured.
    const std::vector<std::string> langs = fuzzGeneratorLangs();
    for (const std::string &lang : langs) {
        if (translate.count(lang))
            continue;
        for (const char *m : {"hm1", "vm2", "vs3"}) {
            ++probe_;
            const GeneratedProgram gp =
                generateProgram(lang, m, seed_ + probe_, 40);
            translateUs(lang, gp.source, *tc.machine(m), {});
        }
    }

    for (const std::string &lang : langs) {
        set(lang == "masm" ? "masm.translate_us"
                           : "lang." + lang + ".translate_us",
            mean(translate[lang]), "us");
    }
    set("mir.insts", double(insts), "count");
    set("codegen.legalize_us", mean(legal), "us");
    set("codegen.optimize_us", mean(opt), "us");
    set("codegen.compile_us", mean(comp), "us");
    set("codegen.lower_emit_us", mean(lower), "us");
    set("codegen.words", double(words), "count");
    set("codegen.fixup_movs", double(fixups), "count");
    set("codegen.optimized", double(optimized), "count");
    set("regalloc.allocate_us", mean(alloc), "us");
    set("regalloc.spilled_vregs", double(spilled), "count");
    set("regalloc.spill_ops", double(spill_ops), "count");
    set("schedule.compact_us", mean(compact), "us");
    set("schedule.words_saved", double(saved), "count");
    set("machine.decode_us", mean(decode), "us");
    set("driver.compile_miss_us", mean(miss), "us");
    set("driver.compile_hit_us", mean(hit), "us");
}

double
LayerSweep::machineSide(const std::vector<Job> &jobs, bool fresh)
{
    Toolchain tc;
    std::vector<double> image, ctor, ckpt, run, overhead, jit_us;
    double interp_words = 0, interp_s = 0, on_s = 0, off_s = 0,
           plan_s = 0, leaf_us = 0, op_us = 0;
    uint64_t fast = 0, slow = 0, injected = 0, corrected = 0,
             retries = 0;
    std::map<std::string, uint64_t> jit;

    // Host time of MicroSimulator::run over a fresh lane.
    auto runUs = [&](const Job &job, const Artefact &art,
                     const SimConfig &cfg, const std::string &plan,
                     uint64_t fault_seed, SimResult *res) {
        Lane lane(job, art, cfg, plan, fault_seed);
        return once("machine", "MicroSimulator::run",
                    [&] { *res = lane.sim->run(lane.entry); });
    };

    for (const Job &job : jobs) {
        ++probe_;
        const auto art = tc.compile(job);
        const SimConfig cfg = jobConfig(job, *art);
        const uint64_t own_seed =
            job.faultSeed ? job.faultSeed : seed_ + probe_;
        Job bare = job;             // the op, minus the benchmark's
        bare.checkMemory = nullptr; // own output check
        tc.run(bare);

        // An op that compiles afresh gets toolchains of their own:
        // one for the whole op, one for its probed compile.
        std::vector<std::unique_ptr<Toolchain>> cold;
        for (int i = 0; fresh && i < 2 * kReps; ++i) {
            cold.push_back(std::make_unique<Toolchain>());
            cold.back()->machine(job.machine);
        }

        // Every timing once per repetition, so host drift falls on
        // all of them alike and their differences and ratios hold.
        SimConfig interp = cfg;     // interpreter only
        interp.jit = false;
        SimConfig on = cfg;         // JIT requested; stands down
        on.jit = true;              // under injection
        std::vector<double> t_img, t_ctor, t_ckpt, t_job, t_leaf, t_op,
            t_interp, t_on, t_off, t_plan, d_over, d_jit;
        SimResult r1, r2, r3, r4;
        for (int i = 0; i < kReps; ++i) {
            // The whole op, then its leaves one layer at a time.
            Toolchain &op_tc = fresh ? *cold[2 * i] : tc;
            t_op.push_back(once("driver", "Toolchain::run",
                                [&] { op_tc.run(bare); }));
            std::shared_ptr<const Artefact> a;
            const double c =
                fresh ? once("driver", "Toolchain::compile(miss)",
                             [&] { a = cold[2 * i + 1]->compile(job); })
                      : once("driver", "Toolchain::compile(hit)",
                             [&] { a = tc.compile(job); });
            const SimConfig own = jobConfig(job, *a);
            t_img.push_back(once("machine", "MainMemory+setup", [&] {
                MainMemory mem(kMemWords, a->machine->dataWidth());
                if (job.setupMemory)
                    job.setupMemory(mem);
                std::vector<uint64_t> baseline = mem.words();
            }));
            MainMemory mem(kMemWords, a->machine->dataWidth());
            t_ctor.push_back(
                once("machine", "MicroSimulator::MicroSimulator",
                     [&] { MicroSimulator sim(a->store(), mem, own); }));
            Lane lane(job, *a, own, job.faultPlan, own_seed);
            lane.sim->begin(lane.entry);
            const std::vector<uint64_t> baseline = lane.mem.words();
            t_ckpt.push_back(once("machine", "Checkpoint::capture", [&] {
                Checkpoint::capture(*lane.sim, baseline);
            }));
            // As the workload runs it: over a fresh artefact, whose
            // JIT regions compile in this run, when the op compiles.
            t_job.push_back(runUs(job, *a, own, job.faultPlan, own_seed,
                                  &r1));
            t_leaf.push_back(c + t_img.back() + t_ctor.back()
                             + t_ckpt.back() + t_job.back());
            // The driver's per-job cost around compile and run.
            d_over.push_back(t_op.back() - t_job.back()
                             - (fresh ? c : 0));

            t_interp.push_back(runUs(job, *art, interp, job.faultPlan,
                                     own_seed, &r2));
            // JIT on vs off, and the recoverable plan vs none, all on
            // the cached artefact.
            t_on.push_back(runUs(job, *art, on, "", 0, &r3));
            t_off.push_back(job.faultPlan.empty()
                                ? t_interp.back()
                                : runUs(job, *art, interp, "", 0, &r3));
            t_plan.push_back(runUs(job, *art, on, "-", own_seed, &r4));
            // A region cache of its own, so every region compiles in
            // this run: its extra time over the warm run is what
            // compiling them cost.
            JitRegionCache cache(*art->machine);
            SimConfig cold_jit = on;
            cold_jit.jitCache = &cache;
            Lane l(job, *art, cold_jit, "", 0);
            d_jit.push_back(once("jit", "MicroSimulator::run(fresh)",
                                 [&] { l.sim->run(l.entry); })
                            - t_on.back());
            if (i == 0) {
                const StatsRegistry &st = l.sim->stats();
                for (const char *n :
                     {"jit.nativeWords", "jit.entries",
                      "jit.regionsCompiled", "jit.deoptOffRegion",
                      "jit.deoptBudget", "jit.deoptHalt"})
                    jit[n] += st.has(n) ? st.value(n) : 0;
                jit["words"] += l.sim->result().wordsExecuted;
            }
        }
        fast += r1.fastPathWords;
        slow += r1.slowPathWords;
        interp_words += double(r2.wordsExecuted);
        interp_s += median(t_interp) * 1e-6;
        on_s += median(t_on);
        off_s += median(t_off);
        plan_s += median(t_plan);
        injected += r4.faultsInjected;
        corrected += r4.eccCorrected;
        retries += r4.memRetries;
        jit_us.push_back(median(d_jit));
        overhead.push_back(median(d_over));
        image.push_back(median(t_img));
        ctor.push_back(median(t_ctor));
        ckpt.push_back(median(t_ckpt));
        run.push_back(median(t_job));
        leaf_us += median(t_leaf);
        op_us += median(t_op);
    }

    set("machine.mem_image_us", mean(image), "us");
    set("machine.sim_ctor_us", mean(ctor), "us");
    set("machine.checkpoint_us", mean(ckpt), "us");
    set("machine.run_us", mean(run), "us");
    set("machine.interp_words_per_s",
        interp_s > 0 ? interp_words / interp_s : 0, "1/s");
    set("machine.fast_path_words", double(fast), "count");
    set("machine.slow_path_words", double(slow), "count");
    set("fault.injected", double(injected), "count");
    set("fault.ecc_corrected", double(corrected), "count");
    set("fault.mem_retries", double(retries), "count");
    // Both interpreter runs: the JIT stands down under the plan.
    set("fault.overhead", off_s > 0 ? plan_s / off_s : 0, "ratio");
    const double native = double(jit["jit.nativeWords"]);
    const double entries = double(jit["jit.entries"]);
    set("jit.native_words", native, "count");
    set("jit.native_share",
        jit["words"] ? native / double(jit["words"]) : 0, "ratio");
    set("jit.entries", entries, "count");
    set("jit.words_per_entry", entries > 0 ? native / entries : 0,
        "words/entry");
    set("jit.regions_compiled", double(jit["jit.regionsCompiled"]),
        "count");
    set("jit.deopt_off_region", double(jit["jit.deoptOffRegion"]),
        "count");
    set("jit.deopt_budget", double(jit["jit.deoptBudget"]), "count");
    set("jit.deopt_halt", double(jit["jit.deoptHalt"]), "count");
    set("jit.compile_us", mean(jit_us), "us");
    set("jit.speedup", on_s > 0 ? off_s / on_s : 0, "ratio");
    set("driver.job_overhead_us", mean(overhead), "us");
    return op_us > 0 ? leaf_us / op_us : 0;
}

void
LayerSweep::cacheSide(const std::vector<Job> &sequence, uint64_t cap)
{
    Toolchain tc;
    if (cap)
        tc.setCacheCapBytes(cap);
    for (const Job &job : sequence)
        tc.compile(job);
    const Toolchain::CacheStats a = tc.cacheStats();
    for (const Job &job : sequence)
        tc.compile(job);
    const Toolchain::CacheStats b = tc.cacheStats();
    const uint64_t hits = b.hits - a.hits;
    const uint64_t misses = b.misses - a.misses;
    set("driver.cache_hit_ratio",
        hits + misses ? double(hits) / double(hits + misses) : 0, "ratio");
    set("driver.cache_evictions", double(b.evictions - a.evictions), "count");
}

double
LayerSweep::serviceSide(const std::string &manifest,
                        ServiceDaemon *daemon)
{
    ++probe_;
    const JsonValue root = JsonValue::parse(manifest);
    JsonWriter body(false);
    body.beginObject();
    body.raw("manifest", manifest);
    body.value("timings", false);
    body.endObject();

    std::unique_ptr<ServiceDaemon> own;
    if (!daemon) {
        ServiceConfig cfg;
        cfg.socketPath = outDir_ + "/perfbench-sweep-"
                         + std::to_string(getpid()) + ".sock";
        cfg.workers = 1;
        own = std::make_unique<ServiceDaemon>(cfg);
        std::string err;
        if (!own->start(&err))
            fatal("perfbench: daemon start: %s", err.c_str());
        daemon = own.get();
    }
    ServiceClient client;
    std::string err;
    if (!client.connectTo(daemon->config().socketPath, &err))
        fatal("perfbench: connect: %s", err.c_str());
    ServiceResponse resp, pong;

    // The request and the report as frames over a socketpair, drained
    // by a reader thread so a report larger than the socket buffer
    // cannot block the writer.
    const std::string request =
        requestEnvelope("batch", "bench", "0", body.str());
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
        fatal("perfbench: socketpair failed");
    std::mutex mu;
    std::condition_variable cv;
    uint64_t frames_read = 0, want = 0;
    std::thread reader([&] {
        std::string payload, rerr;
        while (readFrame(sv[1], &payload, &rerr) == FrameRead::Ok) {
            std::lock_guard<std::mutex> lock(mu);
            ++frames_read;
            cv.notify_one();
        }
    });

    // Each repetition parses, runs and renders the manifest in
    // process -- on this long-lived thread, as the daemon serves a
    // request on its connection thread -- frames the request and the
    // report, and then sends the request to the daemon, followed by a
    // ping as the workload's op does, so host drift falls on the
    // leaves and the whole roundtrip alike.
    Toolchain tc;
    std::vector<double> t_parse, t_batch, t_render, t_frame, share,
        d_hop;
    std::string rendered;
    bool same = true;
    for (int i = -1; i < kReps; ++i) {      // -1 warms tc and daemon
        std::vector<Job> jobs;
        const double p = once("driver", "parseManifest",
                              [&] { jobs = parseManifest(root, ""); });
        BatchReport report;
        const double b = once("driver", "BatchRunner::run", [&] {
            report = BatchRunner(tc, 1).run(jobs);
        });
        const double r = once("obs", "BatchReport::toJson", [&] {
            rendered = report.toJson(true, false);
        });
        rendered += "\n";
        const double f = once("service", "writeFrame+readFrame", [&] {
            std::string werr;
            writeFrame(sv[0], request, &werr);
            writeFrame(sv[0], rendered, &werr);
            want += 2;
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return frames_read == want; });
        });
        const double trip = once("service", "ServiceClient::request", [&] {
            client.request("batch", "bench", "probe", body.str(), &resp,
                           &err);
            client.request("ping", "bench", "", "{}", &pong, &err);
        });
        same = same && resp.ok && pong.ok && resp.follow == rendered;
        if (i < 0)
            continue;
        t_parse.push_back(p);
        t_batch.push_back(b);
        t_render.push_back(r);
        t_frame.push_back(f);
        share.push_back((f + p + b + r) / trip);
        d_hop.push_back(trip - p - b - r);
    }
    ::shutdown(sv[0], SHUT_WR);
    reader.join();
    ::close(sv[0]);
    ::close(sv[1]);
    if (!same)
        ++failures_;
    client.close();
    // service.* are formulas, readable only through the dump.
    const JsonValue st = JsonValue::parse(daemon->stats().toJson(false));
    set("service.rejected",
        st.get("service")->get("rejected")->asNumber(), "count");
    if (own)
        own->stop();

    set("driver.manifest_parse_us", median(t_parse), "us");
    set("driver.batch_us", median(t_batch), "us");
    set("obs.report_render_us", median(t_render), "us");
    set("obs.report_bytes", double(rendered.size() - 1), "bytes");
    set("service.frame_us", median(t_frame), "us");
    set("service.request_hop_us", median(d_hop), "us");
    return median(share);
}

void
LayerSweep::procSide(const std::string &manifest)
{
    const std::vector<Job> jobs =
        parseManifest(JsonValue::parse(manifest), "");
    WorkerPoolConfig cfg;
    cfg.workers = 1;
    if (!WorkerPool::available(cfg))
        fatal("perfbench: worker processes unavailable");
    WorkerPool pool(cfg);
    Toolchain tc;
    std::vector<double> enc, dec, hop;
    for (const Job &job : jobs) {
        ++probe_;
        WireJobRequest req;
        req.job = job;
        enc.push_back(timed("proc", "wireRequestJson",
                            [&] { wireRequestJson(req); }));
        const JobResult local = tc.run(job);
        const JsonValue wire = JsonValue::parse(wireResultJson(local));
        dec.push_back(timed("proc", "wireResultFromJson",
                            [&] { wireResultFromJson(wire); }));
        const SuperviseContext ctx;
        JobResult remote = pool.runJob(job, ctx);   // worker warm-up
        // The same job in this thread and through the pool, in turn.
        std::vector<double> d;
        for (int i = 0; i < kReps; ++i) {
            const double here =
                once("driver", "Toolchain::run", [&] { tc.run(job); });
            d.push_back(once("proc", "WorkerPool::runJob",
                             [&] { remote = pool.runJob(job, ctx); })
                        - here);
        }
        if (remote.toJson(true, false) != local.toJson(true, false))
            ++failures_;
        hop.push_back(median(d));
    }
    pool.shutdown();
    set("proc.wire_encode_us", mean(enc), "us");
    set("proc.wire_decode_us", mean(dec), "us");
    set("proc.job_hop_us", mean(hop), "us");
    set("proc.crashes", double(pool.stats().crashes), "count");
}

} // namespace pb
