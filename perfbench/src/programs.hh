/**
 * @file
 * The benchmark's programs and their reference outputs.
 *
 * A Reference is what a correct run leaves behind: the final values
 * of the job's `sets` variables and every nonzero main-memory word
 * outside the machine's compiler scratch RAM. Each is computed
 * before any timed window -- by the MIR reference interpreter for
 * the long-loop kernels, by fuzzGolden for generated programs -- and
 * every op is compared against it.
 */

#ifndef PERFBENCH_PROGRAMS_HH
#define PERFBENCH_PROGRAMS_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/toolchain.hh"

namespace pb {

struct Reference {
    std::vector<std::pair<std::string, uint64_t>> vars;
    //! nonzero words outside scratch RAM, ascending address
    std::vector<std::pair<uint32_t, uint64_t>> mem;
    uint32_t scratchBase = 0;
    uint32_t scratchWords = 0;
};

/** Sparse image of @p mem in Reference form. */
std::vector<std::pair<uint32_t, uint64_t>>
nonzeroWords(const uhll::MainMemory &mem, uint32_t scratch_base,
             uint32_t scratch_words);

/** Install a checkMemory hook comparing final memory with @p ref. */
void checkAgainst(uhll::Job &job, std::shared_ptr<const Reference> ref);

/** A program the benchmark runs, with its reference. */
struct Program {
    uhll::Job job;      //!< as the workload runs it (hooks attached)
    std::shared_ptr<const Reference> ref;
    //! the same program as a manifest job object (inline source and
    //! sets; memory set-up hooks do not travel through manifests)
    std::string manifestJob;
};

/** True when @p r matches @p ref (vars; memory via checkAgainst). */
bool resultMatches(const uhll::JobResult &r, const Reference &ref);

/**
 * The long-loop kernels (checksum, memcpy, transliterate bodies under
 * an outer repeat count, plus an ALU-only countdown) on HM-1, VM-2
 * and VS-3, inputs drawn from @p seed. With @p faults every job
 * carries the built-in recoverable fault mix with a seeded stream.
 */
std::vector<Program> longLoopPrograms(const uhll::Toolchain &tc,
                                      uint64_t seed, bool faults);

/**
 * The compile stream: a fixed-seed generateProgram sequence over
 * every generator frontend and machine (programs whose golden run
 * does not halt are skipped, deterministically). Jobs run the
 * default pipeline; references come from fuzzGolden.
 */
std::vector<Program> compileStream(const uhll::Toolchain &ref_tc,
                                   unsigned count);

/** A manifest object with @p jobs (each a JSON object). */
std::string manifestOf(const std::vector<std::string> &jobs);

} // namespace pb

#endif // PERFBENCH_PROGRAMS_HH
