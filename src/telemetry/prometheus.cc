#include "telemetry/prometheus.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "telemetry/build_info.hh"

namespace hyperplane {
namespace telemetry {

std::string
sanitizeMetricName(std::string_view path)
{
    std::string out = "hyperplane_";
    out.reserve(out.size() + path.size());
    for (char c : path) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string
escapeLabelValue(std::string_view v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

namespace {

std::string
sampleValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    char buf[64];
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    } else {
        std::snprintf(buf, sizeof(buf), "%.12g", v);
    }
    return buf;
}

} // namespace

std::string
prometheusText(const stats::Registry &reg, double uptimeSec)
{
    std::ostringstream os;
    const BuildInfo &bi = buildInfo();
    os << "# HELP hyperplane_build_info Build provenance of the "
          "serving binary.\n"
          "# TYPE hyperplane_build_info gauge\n"
          "hyperplane_build_info{git_sha=\""
       << escapeLabelValue(bi.gitSha) << "\",build_type=\""
       << escapeLabelValue(bi.buildType) << "\",compiler=\""
       << escapeLabelValue(bi.compiler) << "\",cpu_features=\""
       << escapeLabelValue(bi.cpuFeatures) << "\",simd_checksum=\""
       << escapeLabelValue(bi.simdChecksum) << "\",simd_crc32c=\""
       << escapeLabelValue(bi.simdCrc32c) << "\",simd_header_check=\""
       << escapeLabelValue(bi.simdHeaderCheck) << "\",force_scalar=\""
       << (bi.forcedScalar ? "1" : "0") << "\"} 1\n";
    os << "# HELP hyperplane_uptime_seconds Seconds since the server "
          "started.\n"
          "# TYPE hyperplane_uptime_seconds gauge\n"
          "hyperplane_uptime_seconds "
       << sampleValue(uptimeSec) << '\n';
    reg.forEach([&os](const std::string &path, double v) {
        os << sanitizeMetricName(path) << ' ' << sampleValue(v)
           << '\n';
    });
    return os.str();
}

} // namespace telemetry
} // namespace hyperplane
