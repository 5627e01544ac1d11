/**
 * @file
 * trb::env -- the one place the process environment is consulted.
 *
 * Every TRB_* runtime knob is declared in a central registry (name plus
 * one-line summary) and read through the typed accessors below; an
 * accessor passed an unregistered name dies immediately, so a new knob
 * cannot sneak in without a registry entry.  The registry is what keeps
 * docs/env-vars.md honest: the Env.EveryRegisteredVarIsDocumented unit
 * test and tools/repo_lint.py (which also checks the reverse direction)
 * fail when a registered variable is missing from that table.
 *
 * The legacy experiment-scaling helpers (traceLengthFromEnv,
 * suiteScaleFromEnv) live on top of the typed accessors and keep their
 * historical validation.
 */

#ifndef TRB_COMMON_ENV_HH
#define TRB_COMMON_ENV_HH

#include <cstdint>
#include <string>
#include <vector>

namespace trb
{
namespace env
{

/** One registered environment variable. */
struct VarInfo
{
    const char *name;      //!< "TRB_..."
    const char *summary;   //!< one line, for diagnostics
};

/** Every TRB_* variable the tree reads, in stable (alphabetical) order. */
const std::vector<VarInfo> &registry();

/** True if @p name is a registered variable. */
bool isRegistered(const char *name);

/**
 * Raw value of a *registered* variable; nullptr when unset.  Fatal on an
 * unregistered name -- register the knob (and document it in
 * docs/env-vars.md) first.
 */
const char *raw(const char *name);

/** Integer variable with a default; fatal on a malformed value. */
std::uint64_t u64(const char *name, std::uint64_t def);

/** Floating-point variable with a default; fatal on a malformed value. */
double number(const char *name, double def);

/** String variable with a default (unset and empty both yield @p def). */
std::string str(const char *name, const std::string &def = "");

/** Boolean knob: set to a non-empty, non-"0" value. */
bool flag(const char *name);

} // namespace env

/** Instructions per synthetic trace for experiments (TRB_TRACE_LEN). */
std::uint64_t traceLengthFromEnv(std::uint64_t def = 50000);

/** Fraction (0,1] of a suite to run (TRB_SUITE_SCALE). */
double suiteScaleFromEnv(double def = 1.0);

} // namespace trb

#endif // TRB_COMMON_ENV_HH
