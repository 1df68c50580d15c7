#include "programs.hh"

#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "mir/interp.hh"
#include "obs/json.hh"
#include "support/logging.hh"

namespace pb {

using namespace uhll;

namespace {

constexpr uint32_t kMemWords = 0x10000;  //!< Toolchain job memory
constexpr uint32_t kSrc = 0x400;
constexpr uint32_t kDst = 0x480;
constexpr uint32_t kTbl = 0x500;
constexpr uint32_t kN = 64;              //!< words per inner loop

// The E1 checksum, memcpy and transliterate bodies, each wrapped in
// an outer repeat loop so one job simulates 1e5..1e6 words, plus an
// ALU-only countdown (no memory words, so the JIT keeps it native).
const char *const kChecksum = R"(
reg base
reg n
reg reps
reg sum
reg t
reg p
reg i
proc main
    put sum, 0
outer:
    jump done if reps = 0
    move p, base
    move i, n
inner:
    jump next if i = 0
    load t, p
    rol sum, sum, 1
    xor sum, sum, t
    add p, p, 1
    sub i, i, 1
    jump inner
next:
    sub reps, reps, 1
    jump outer
done:
    put p, 0x5F0
    stor sum, p
    exit
)";

const char *const kMemcpy = R"(
reg src
reg dst
reg n
reg reps
reg s
reg d
reg i
reg t
proc main
outer:
    jump done if reps = 0
    move s, src
    move d, dst
    move i, n
inner:
    jump next if i = 0
    load t, s
    stor t, d
    add s, s, 1
    add d, d, 1
    sub i, i, 1
    jump inner
next:
    sub reps, reps, 1
    jump outer
done:
    exit
)";

const char *const kTransliterate = R"(
reg src
reg dst
reg tbl
reg n
reg reps
reg s
reg d
reg i
reg c
proc main
outer:
    jump done if reps = 0
    move s, src
    move d, dst
    move i, n
inner:
    jump next if i = 0
    load c, s
    add c, c, tbl
    load c, c
    stor c, d
    add s, s, 1
    add d, d, 1
    sub i, i, 1
    jump inner
next:
    sub reps, reps, 1
    jump outer
done:
    exit
)";

const char *const kCountdown = R"(
reg n
reg reps
reg acc
reg x
reg i
proc main
outer:
    jump done if reps = 0
    move i, n
inner:
    jump next if i = 0
    add acc, acc, i
    xor x, x, acc
    rol x, x, 3
    sub i, i, 1
    jump inner
next:
    sub reps, reps, 1
    jump outer
done:
    exit
)";

struct Kernel {
    const char *name;
    const char *source;
    //! outer repeat count per machine (hm1, vm2, vs3): fixed, so the
    //! simulated work -- and every exact count -- is seed-independent;
    //! sized so each job takes a similar host time with the JIT on
    uint32_t reps[3];
};

const Kernel kKernels[] = {
    {"checksum", kChecksum, {250, 245, 310}},
    {"memcpy", kMemcpy, {185, 150, 220}},
    {"transliterate", kTransliterate, {130, 100, 145}},
    {"countdown", kCountdown, {585, 435, 580}},
};

const char *const kMachines[] = {"hm1", "vm2", "vs3"};

std::string
setsJson(const std::vector<std::pair<std::string, uint64_t>> &sets)
{
    JsonWriter w(false);
    w.beginObject();
    for (const auto &[k, v] : sets)
        w.value(k, v);
    w.endObject();
    return w.str();
}

/** Run @p job's program on the MIR interpreter over @p mem. */
Reference
interpret(const Job &job, const MachineDescription &mach,
          MainMemory &mem)
{
    MirProgram prog = translateToMir(job.lang, job.source, mach);
    MirInterpreter interp(prog, mem, mach.dataWidth());
    for (const auto &[name, value] : job.sets)
        interp.setVReg(name, value);
    uint32_t func = 0;
    for (uint32_t f = 0; f < prog.numFunctions(); ++f)
        if (prog.func(f).name == job.entry)
            func = f;
    const MirRunResult rr = interp.run(func, 100'000'000);
    if (!rr.halted)
        fatal("perfbench: reference run of %s did not halt",
              job.name.c_str());
    Reference ref;
    for (const auto &[name, value] : job.sets) {
        (void)value;
        ref.vars.emplace_back(name, interp.getVReg(name));
    }
    ref.scratchBase = mach.scratchBase();
    ref.scratchWords = mach.scratchWords();
    ref.mem = nonzeroWords(mem, ref.scratchBase, ref.scratchWords);
    return ref;
}

} // namespace

std::vector<std::pair<uint32_t, uint64_t>>
nonzeroWords(const MainMemory &mem, uint32_t scratch_base,
             uint32_t scratch_words)
{
    std::vector<std::pair<uint32_t, uint64_t>> out;
    const std::vector<uint64_t> &w = mem.words();
    for (uint32_t i = 0; i < w.size(); ++i) {
        if (w[i] && (i < scratch_base || i >= scratch_base + scratch_words))
            out.emplace_back(i, w[i]);
    }
    return out;
}

void
checkAgainst(Job &job, std::shared_ptr<const Reference> ref)
{
    job.checkMemory = [ref](const MainMemory &mem, std::string *why) {
        if (nonzeroWords(mem, ref->scratchBase, ref->scratchWords)
            == ref->mem)
            return true;
        if (why)
            *why = "final memory differs from the reference";
        return false;
    };
}

bool
resultMatches(const JobResult &r, const Reference &ref)
{
    return r.ok && r.ran && r.sim.halted && r.vars == ref.vars;
}

std::vector<Program>
longLoopPrograms(const Toolchain &tc, uint64_t seed, bool faults)
{
    FuzzRng rng(seed ^ 0x5EEDF00DULL);
    // One seeded input image shared by every kernel: source array,
    // transliteration table, countdown start values.
    std::vector<uint64_t> src(kN), tbl(16);
    for (uint64_t &v : src)
        v = rng.below(16);
    for (uint64_t &v : tbl)
        v = 0x100 + rng.below(0x7F00);
    const uint64_t acc0 = rng.below(0x10000);
    const uint64_t x0 = rng.below(0x10000);

    auto setup = [src, tbl](MainMemory &mem) {
        for (uint32_t i = 0; i < kN; ++i)
            mem.poke(kSrc + i, src[i]);
        for (uint32_t i = 0; i < 16; ++i)
            mem.poke(kTbl + i, tbl[i]);
    };

    std::vector<Program> out;
    for (const Kernel &k : kKernels) {
        for (size_t m = 0; m < 3; ++m) {
            const auto mach = tc.machine(kMachines[m]);
            Program p;
            Job &job = p.job;
            job.name = std::string(k.name) + "/" + kMachines[m];
            job.lang = "yalll";
            job.machine = kMachines[m];
            job.entry = "main";
            job.source = k.source;
            const uint64_t reps = k.reps[m];
            if (job.source == kCountdown) {
                job.sets = {{"n", 250}, {"reps", reps},
                            {"acc", acc0}, {"x", x0}};
            } else {
                job.sets = {{"n", kN}, {"reps", reps}};
                if (job.source == kChecksum) {
                    job.sets.insert(job.sets.begin(), {"base", kSrc});
                    job.sets.emplace_back("sum", 0);
                } else {
                    job.sets.insert(job.sets.begin(), {"dst", kDst});
                    job.sets.insert(job.sets.begin(), {"src", kSrc});
                    if (job.source == kTransliterate)
                        job.sets.emplace_back("tbl", kTbl);
                }
            }
            job.setupMemory = setup;
            if (faults) {
                job.faultPlan = "-";
                job.faultSeed = 1 + rng.below(1ULL << 48);
            }

            MainMemory mem(kMemWords, mach->dataWidth());
            setup(mem);
            p.ref = std::make_shared<const Reference>(
                interpret(job, *mach, mem));
            checkAgainst(job, p.ref);

            JsonWriter w(false);
            w.beginObject();
            w.value("name", job.name);
            w.value("lang", job.lang);
            w.value("machine", job.machine);
            w.value("source", job.source);
            w.raw("sets", setsJson(job.sets));
            if (faults) {
                w.value("inject", "-");
                w.value("seed", job.faultSeed);
            }
            w.endObject();
            p.manifestJob = w.str();
            out.push_back(std::move(p));
        }
    }
    return out;
}

std::vector<Program>
compileStream(const Toolchain &ref_tc, unsigned count)
{
    // Fixed: the stream (and so every compile-side count) is the same
    // for every --seed; the seed only orders it.
    constexpr uint64_t kStreamSeed = 0xC0FFEE;
    constexpr unsigned kBudget = 120;
    const std::vector<std::string> langs = fuzzGeneratorLangs();
    std::vector<Program> out;
    for (uint64_t k = 0; out.size() < count; ++k) {
        const std::string &lang = langs[k % langs.size()];
        const char *machine = kMachines[(k / langs.size()) % 3];
        const GeneratedProgram gp =
            generateProgram(lang, machine, kStreamSeed + k, kBudget);
        const FuzzObservation golden = fuzzGolden(ref_tc, gp);
        if (!golden.ok)
            continue;

        Program p;
        // Timed as a user runs it: the default pipeline, JIT on.
        p.job = fuzzJob(gp, ConfigSample{});
        // The sparse image behind golden's digest: same run, kept.
        const auto mach = ref_tc.machine(machine);
        auto ref = std::make_shared<Reference>();
        ref->vars = golden.vars;
        ref->scratchBase = mach->scratchBase();
        ref->scratchWords = mach->scratchWords();
        uint64_t digest = 0;
        if (fuzzLangIsMir(lang)) {
            MainMemory mem(kMemWords, mach->dataWidth());
            const Reference r = interpret(p.job, *mach, mem);
            ref->mem = r.mem;
            digest = fuzzMemDigest(mem.words(), ref->scratchBase,
                                   ref->scratchWords);
        } else {
            Job j = fuzzJob(gp, referenceConfig());
            j.onFinish = [&](const MicroSimulator &,
                             const MainMemory &mem) {
                ref->mem = nonzeroWords(mem, ref->scratchBase,
                                        ref->scratchWords);
                digest = fuzzMemDigest(mem.words(), ref->scratchBase,
                                       ref->scratchWords);
            };
            ref_tc.run(j);
        }
        if (digest != golden.memDigest)
            fatal("perfbench: reference image of %s disagrees with "
                  "fuzzGolden",
                  p.job.name.c_str());
        p.ref = ref;
        checkAgainst(p.job, p.ref);

        JsonWriter w(false);
        w.beginObject();
        w.value("name", p.job.name);
        w.value("lang", p.job.lang);
        w.value("machine", p.job.machine);
        w.value("source", p.job.source);
        w.value("entry", p.job.entry);
        w.raw("sets", setsJson(p.job.sets));
        w.value("max_cycles", p.job.maxCycles);
        w.value("deadline_seconds", p.job.deadlineSeconds);
        w.endObject();
        p.manifestJob = w.str();
        out.push_back(std::move(p));
    }
    return out;
}

std::string
manifestOf(const std::vector<std::string> &jobs)
{
    std::string s = "{\"jobs\": [";
    for (size_t i = 0; i < jobs.size(); ++i)
        s += (i ? ", " : "") + jobs[i];
    return s + "]}";
}

} // namespace pb
