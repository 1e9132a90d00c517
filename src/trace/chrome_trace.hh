/**
 * @file
 * Chrome trace-event JSON exporter.
 *
 * Serializes trace events (a FlightRecorder snapshot) into the Trace
 * Event Format understood by chrome://tracing and ui.perfetto.dev: one
 * JSON object with a "traceEvents" array of instant ("i") and duration
 * begin/end ("B"/"E") events, timestamps in (fractional) microseconds,
 * plus thread_name metadata so tracks render as "core0", "hw0",
 * "device", "watchdog".
 */

#ifndef HYPERPLANE_TRACE_CHROME_TRACE_HH
#define HYPERPLANE_TRACE_CHROME_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace hyperplane {
namespace trace {

/** Write the events as a complete Chrome trace JSON document. */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceEvent> &events);

/** Same document as a string (tests, small traces). */
std::string chromeTraceJson(const std::vector<TraceEvent> &events);

} // namespace trace
} // namespace hyperplane

#endif // HYPERPLANE_TRACE_CHROME_TRACE_HH
