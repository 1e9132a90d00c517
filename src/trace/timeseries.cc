#include "trace/timeseries.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"
#include "stats/json.hh"

namespace hyperplane {
namespace trace {

void
TimeSeries::setColumns(std::vector<std::string> columns)
{
    columns_ = std::move(columns);
    rows_.clear();
}

void
TimeSeries::appendRow(Tick t, std::vector<double> values)
{
    hp_assert(values.size() == columns_.size(),
              "time-series row width %zu != column count %zu",
              values.size(), columns_.size());
    rows_.push_back({t, std::move(values)});
}

void
TimeSeries::writeCsv(std::ostream &os) const
{
    os << "tick,time_us";
    for (const auto &c : columns_)
        os << ',' << c;
    os << '\n';
    for (const auto &row : rows_) {
        os << row.tick << ',' << stats::jsonNumber(ticksToUs(row.tick));
        for (double v : row.values)
            os << ',' << stats::jsonNumber(v);
        os << '\n';
    }
}

void
TimeSeries::writeJson(std::ostream &os) const
{
    os << "{\"columns\":[";
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        if (i != 0)
            os << ',';
        os << stats::jsonString(columns_[i]);
    }
    os << "],\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        if (i != 0)
            os << ',';
        os << "\n{\"tick\":" << rows_[i].tick << ",\"time_us\":"
           << stats::jsonNumber(ticksToUs(rows_[i].tick))
           << ",\"values\":[";
        for (std::size_t j = 0; j < rows_[i].values.size(); ++j) {
            if (j != 0)
                os << ',';
            os << stats::jsonNumber(rows_[i].values[j]);
        }
        os << "]}";
    }
    os << "\n]}\n";
}

RegistrySampler::RegistrySampler(EventQueue &eq,
                                 const stats::Registry &registry,
                                 Tick period)
    : eq_(eq), registry_(registry), period_(std::max<Tick>(1, period))
{
}

void
RegistrySampler::start()
{
    if (running_)
        return;
    paths_ = registry_.paths();
    series_.setColumns(paths_);
    running_ = true;
    sampleOnce();
    scheduleNext();
}

void
RegistrySampler::stop()
{
    running_ = false;
}

void
RegistrySampler::sampleOnce()
{
    std::vector<double> values;
    values.reserve(paths_.size());
    for (const auto &p : paths_)
        values.push_back(registry_.value(p));
    series_.appendRow(eq_.now(), std::move(values));
}

void
RegistrySampler::scheduleNext()
{
    eq_.scheduleIn(period_, [this] {
        if (!running_)
            return;
        sampleOnce();
        scheduleNext();
    });
}

} // namespace trace
} // namespace hyperplane
