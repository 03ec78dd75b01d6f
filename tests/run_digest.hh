/**
 * @file
 * Compact fingerprints of a finished run for golden-value tests:
 * RunResults as one JSON line and the stat tree as a 64-bit FNV-1a
 * hash of its text dump. A golden recorded from one kernel and
 * matched by another proves the two simulated the same thing.
 */

#ifndef HYPERSIO_TESTS_RUN_DIGEST_HH
#define HYPERSIO_TESTS_RUN_DIGEST_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "core/run_results.hh"
#include "core/system.hh"
#include "util/json.hh"

namespace hypersio::golden
{

inline uint64_t
fnv1a(std::string_view bytes, uint64_t hash = 0xcbf29ce484222325ull)
{
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

inline std::string
resultsJson(const core::RunResults &r)
{
    std::ostringstream os;
    json::Writer w(os, /*indent=*/0);
    core::writeRunResultsJson(w, r);
    return os.str();
}

inline uint64_t
statsDigest(const core::System &system)
{
    std::ostringstream os;
    system.dumpStats(os);
    return fnv1a(os.str());
}

} // namespace hypersio::golden

#endif // HYPERSIO_TESTS_RUN_DIGEST_HH
