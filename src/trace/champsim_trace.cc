#include "trace/champsim_trace.hh"

#include <zlib.h>

#include "common/strings.hh"
#include "resil/gz_stream.hh"

namespace trb
{

Status
tryWriteChampSimTrace(const std::string &path, const ChampSimTrace &trace)
{
    bool compress = endsWith(path, ".gz");
    gzFile f = gzopen(path.c_str(), compress ? "wb6" : "wbT");
    if (!f)
        return Status::ioError("cannot open ChampSim trace for writing")
            .at(path);
    constexpr std::size_t chunk = 16384;
    for (std::size_t i = 0; i < trace.size(); i += chunk) {
        std::size_t n = std::min(chunk, trace.size() - i);
        if (gzwrite(f, trace.data() + i,
                    static_cast<unsigned>(n * sizeof(ChampSimRecord))) <= 0) {
            gzclose(f);
            return Status::ioError("write error on ChampSim trace")
                .at(path, i * sizeof(ChampSimRecord), i);
        }
    }
    if (gzclose(f) != Z_OK)
        return Status::ioError("close/flush error on ChampSim trace")
            .at(path, trace.size() * sizeof(ChampSimRecord));
    return Status{};
}

Expected<ChampSimTrace>
tryReadChampSimTrace(const std::string &path)
{
    resil::GzInFile in;
    if (Status st = in.open(path); !st.ok())
        return st;
    ChampSimTrace trace;
    ChampSimRecord rec;
    for (;;) {
        std::uint64_t at = in.offset();
        int got = in.readFully(&rec, sizeof(rec));
        if (got < 0)
            return Status(in.status()).at(path, at, trace.size());
        if (got == 0)
            break;
        if (static_cast<std::size_t>(got) != sizeof(rec))
            return Status::truncated(
                       "ChampSim trace ended mid-record (" +
                       std::to_string(got) + " trailing bytes)")
                .at(path, at, trace.size())
                .rule("champsim.record-size");
        trace.push_back(rec);
    }
    return trace;
}

} // namespace trb
