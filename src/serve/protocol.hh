/**
 * @file
 * trb::serve wire protocol (schema "trb-serve-v1"): the length-prefixed
 * JSON-lines frames the simulation daemon and its clients exchange over
 * a Unix-domain socket, plus the request/reply document schema.
 *
 * Framing.  One message = one frame:
 *
 *     <LEN>\n<PAYLOAD>\n
 *
 * where LEN is the ASCII decimal byte count of PAYLOAD and PAYLOAD is
 * one JSON document.  LEN is capped at kMaxFrameBytes; a frame whose
 * prefix is not a digit run, or whose announced length exceeds the cap,
 * is unrecoverable (the stream cannot be re-synchronised) and closes
 * the connection.  A malformed *document* inside a well-formed frame is
 * recoverable: the server answers with a typed error reply and keeps
 * the connection open.
 *
 * Documents.  Requests carry an "op" ("sim", "ping", "stats") and an
 * optional client-chosen "id" that every reply echoes.  Errors travel
 * as the trb::resil taxonomy ({"class": "busy", ...}); simulation
 * results travel as the exact SimStats::toBits() u64 bit patterns,
 * hex-encoded so they survive JSON's double-typed numbers -- a reply is
 * bit-identical to a direct simulate() call by construction.  The full
 * field-by-field reference lives in docs/serving.md.
 *
 * Everything here is transport-agnostic except the two frame functions:
 * parsing and rendering work on strings, so tests drive the protocol
 * without a socket.
 */

#ifndef TRB_SERVE_PROTOCOL_HH
#define TRB_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "convert/improvements.hh"
#include "pipeline/sim_stats.hh"
#include "resil/fault.hh"
#include "resil/status.hh"
#include "sim/simulator.hh"
#include "trace/cvp_trace.hh"

namespace trb
{
namespace serve
{

/** Wire schema identifier; bump on any incompatible document change. */
constexpr const char *kServeSchema = "trb-serve-v1";

/** Hard cap on one frame's payload (requests and replies). */
constexpr std::size_t kMaxFrameBytes = 4u << 20;

/**
 * @name Framing
 * Blocking frame I/O over a connected stream fd.  Both retry EINTR and
 * short transfers.  readFrame() tells a clean close (EOF on a frame
 * boundary) from a truncated frame (EOF inside one, TruncatedInput with
 * rule "serve.frame").  Given @p closed, it reports a clean close by
 * setting *closed and returning ok: a hang-up is not an error, and no
 * Status is constructed for it (every error Status counts in
 * resil.errors.*).  Without @p closed, a clean close is TruncatedInput
 * with rule "serve.closed".
 * @{
 */
Status writeFrame(int fd, const std::string &payload);
Status readFrame(int fd, std::string &payload, bool *closed = nullptr);

/** Knobs for the daemon-side frame writer. */
struct WriteOptions
{
    /**
     * Per-write readiness bound in ms (poll-based): a peer that stops
     * draining its socket for this long turns the write into a typed
     * Timeout (rule "serve.write") instead of blocking a worker
     * forever.  0 blocks indefinitely (the plain writeFrame()).
     */
    unsigned timeoutMs = 0;

    /**
     * Connection-scoped fault plan (conn-reset / conn-stall /
     * partial-write), or nullptr for a clean wire.  Not owned; must
     * outlive the call.
     */
    const resil::FaultPlan *chaos = nullptr;

    /** 0-based index of this frame on its connection (chaos keying). */
    std::uint64_t frameIndex = 0;
};

/**
 * writeFrame() with write-readiness bounding and deterministic
 * connection chaos.  An injected conn-reset hard-shuts @p fd and
 * reports IoError (rule "serve.chaos"); conn-stall delays the write;
 * partial-write dribbles the frame out in plan-determined chunks
 * (bytes are never corrupted).
 */
Status writeFrame(int fd, const std::string &payload,
                  const WriteOptions &opts);

/** @} */

/**
 * Typed check that @p path fits sockaddr_un::sun_path (about 107
 * bytes): BadRequest with rule "serve.socket-path" when it does not,
 * instead of the silent truncation strncpy would give.  Shared by the
 * daemon (ServeConfig::validate) and the client's connect().
 */
Status validateSocketPath(const std::string &path);

/** Request operations. */
enum class Op : std::uint8_t
{
    Sim,     //!< run (or answer from the store) one simulation
    Ping,    //!< liveness probe
    Stats,   //!< serve.*/store.* counter snapshot
};

/** Stable wire name of an op ("sim", "ping", "stats"). */
const char *opName(Op op);

/** One parsed request. */
struct ServeRequest
{
    Op op = Op::Ping;

    /** Client-chosen correlation tag, echoed verbatim in the reply. */
    std::string id;

    /**
     * Trace spec (op "sim" only):
     *   "suite:cvp1:<name>"  | "suite:ipc1:<name>"   named suite entry
     *   "preset:<kind>:<seed>"   kind = int|fp|crypto|server|membound
     *   "file:<path>"            CVP-1 trace file (plain or .gz)
     */
    std::string trace;

    /** Dynamic instructions for synthetic specs (ignored for file:). */
    std::uint64_t length = 50000;

    /** Converter improvements (wire: the artifact CLI set names). */
    ImprovementSet imps = kImpNone;

    /** Core configuration: false = modernConfig(), true = ipc1Config(). */
    bool ipc1 = false;

    /** Leading fraction of the converted trace discarded from stats. */
    double warmupFraction = 0.0;

    /** Consult/fill the artifact store for this request. */
    bool useStore = true;

    /**
     * Client deadline in milliseconds from admission (op "sim" only);
     * 0 means unbounded.  A request still queued past its deadline is
     * answered with a typed `timeout` reply without burning a worker;
     * an in-flight one is cancelled and answered `timeout`.
     */
    std::uint64_t deadlineMs = 0;
};

/**
 * Parse one request document.  BadRequest (with rule "serve.<field>")
 * on anything malformed, unknown or out of range; @p out is only
 * meaningful on OK.
 */
Status parseRequest(const std::string &json, ServeRequest &out);

/** Render @p req as a request document (the client side's encoder). */
std::string requestJson(const ServeRequest &req);

/**
 * Materialise the CVP-1 trace a request names: generate the synthetic
 * spec or read the file.  BadRequest on an unparseable spec or unknown
 * suite entry; file errors keep their reader classification
 * (truncated/corrupt/io/bad-magic).
 */
Expected<CvpTrace> resolveTrace(const ServeRequest &req);

/** One parsed reply. */
struct ServeReply
{
    bool ok = false;
    std::string op;
    std::string id;

    /** The typed error of a !ok reply (class, message, rule). */
    Status error;

    /** Dispatch sequence number of a sim reply (daemon-global order). */
    std::uint64_t seq = 0;

    /** Provenance of a sim reply (mirrors SimResult). */
    bool statsFromStore = false;

    /** Decoded SimStats of a sim reply (exact bits off the wire). */
    SimStats stats;

    /** The whole flattened document (ping/stats consumers). */
    JsonFlat raw;
};

/**
 * Parse one reply document.  The returned Status reports *transport*
 * problems (unparseable JSON, missing fields, a bits vector of the
 * wrong stat-layout length); an error reply parses OK with
 * out.ok == false and the error in out.error.
 */
Status parseReply(const std::string &json, ServeReply &out);

/**
 * @name Reply encoders (the daemon side)
 * errorReplyJson()'s @p op is the wire op name being answered; pass ""
 * when the request was too malformed to decode one (the field is then
 * omitted from the reply).
 * @{
 */
std::string errorReplyJson(const std::string &op, const std::string &id,
                           const Status &st);
std::string pingReplyJson(const std::string &id, double uptimeSeconds);
std::string simReplyJson(const std::string &id, const SimResult &result,
                         std::uint64_t seq);

/**
 * Stats reply: every "serve." / "store." / "resil." counter and gauge
 * of the global metrics registry plus uptime and the serving
 * configuration.
 */
std::string statsReplyJson(const std::string &id, double uptimeSeconds,
                           std::size_t jobs, std::size_t queueBound);
/** @} */

} // namespace serve
} // namespace trb

#endif // TRB_SERVE_PROTOCOL_HH
