#include "trace/chrome_trace.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "stats/json.hh"

namespace hyperplane {
namespace trace {

namespace {

const char *
phaseCode(Phase p)
{
    switch (p) {
      case Phase::Instant:
        return "i";
      case Phase::Begin:
        return "B";
      case Phase::End:
        return "E";
    }
    return "i";
}

void
writeEvent(std::ostream &os, const TraceEvent &e)
{
    os << "{\"name\":" << stats::jsonString(toString(e.stage))
       << ",\"ph\":\"" << phaseCode(e.phase) << "\""
       << ",\"ts\":" << stats::jsonNumber(ticksToUs(e.ts))
       << ",\"pid\":0,\"tid\":" << e.track;
    if (e.phase == Phase::Instant)
        os << ",\"s\":\"t\"";
    os << ",\"args\":{\"tick\":" << e.ts;
    if (e.qid != invalidQueueId)
        os << ",\"qid\":" << e.qid;
    if (e.arg != 0)
        os << ",\"arg\":" << e.arg;
    os << "}}";
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<TraceEvent> &events)
{
    // Tracks present, for thread_name metadata.
    std::vector<std::uint32_t> tracks;
    for (const auto &e : events) {
        if (std::find(tracks.begin(), tracks.end(), e.track) ==
            tracks.end()) {
            tracks.push_back(e.track);
        }
    }
    std::sort(tracks.begin(), tracks.end());

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"hyperplane-sim\"}}";
    first = false;
    for (std::uint32_t t : tracks) {
        os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":"
           << t << ",\"args\":{\"name\":"
           << stats::jsonString(trackName(t)) << "}}";
    }
    for (const auto &e : events) {
        if (!first)
            os << ",";
        else
            first = false;
        os << "\n";
        writeEvent(os, e);
    }
    os << "\n]}\n";
}

std::string
chromeTraceJson(const std::vector<TraceEvent> &events)
{
    std::ostringstream os;
    writeChromeTrace(os, events);
    return os.str();
}

} // namespace trace
} // namespace hyperplane
