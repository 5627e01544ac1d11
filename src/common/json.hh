/**
 * @file
 * A minimal JSON reader for the documents this repository emits and
 * reads (trb-serve-v1 requests and replies, perfbench's reference
 * file, metrics dumps, BENCH_* run manifests, sampler JSONL lines):
 * objects, arrays, strings, numbers, booleans and null.
 *
 * The reader flattens the document into two maps keyed by "/"-joined
 * paths -- numbers (booleans fold to 0/1) and strings -- which is the
 * shape every consumer here wants: the daemon, the client and perfbench
 * look up known fields by path, and the tests assert on known keys.  It
 * is not a general-purpose parser (no \uXXXX decoding beyond a byte
 * passthrough, no duplicate-key detection).
 *
 * trace_served feeds it every client frame, so it must survive hostile
 * input: malformed text fails cleanly, and nesting deeper than
 * kMaxJsonDepth fails before the recursion (one stack frame and one
 * longer path string per level) can exhaust the stack or the heap.
 */

#ifndef TRB_COMMON_JSON_HH
#define TRB_COMMON_JSON_HH

#include <map>
#include <string>

namespace trb
{

/**
 * Deepest nesting of objects and arrays parseJson() accepts.  The
 * deepest document the repository writes or reads has 4 levels.
 */
constexpr unsigned kMaxJsonDepth = 64;

/** A JSON document flattened to path -> scalar maps. */
struct JsonFlat
{
    /** Numeric leaves (plus booleans as 0/1), by "/"-joined path. */
    std::map<std::string, double> numbers;
    /** String leaves, by "/"-joined path. */
    std::map<std::string, std::string> strings;

    /** Value of a numeric leaf, or @p def when absent. */
    double number(const std::string &path, double def = 0.0) const;

    /** True if a numeric leaf exists at @p path. */
    bool hasNumber(const std::string &path) const;

    /** Value of a string leaf, or @p def when absent. */
    std::string str(const std::string &path,
                    const std::string &def = "") const;
};

/**
 * Parse @p text into @p out.  Returns false (and sets @p error when
 * given) on malformed input, trailing garbage or nesting deeper than
 * kMaxJsonDepth; @p out may then hold a partial flattening and must be
 * discarded.
 */
bool parseJson(const std::string &text, JsonFlat &out,
               std::string *error = nullptr);

} // namespace trb

#endif // TRB_COMMON_JSON_HH
