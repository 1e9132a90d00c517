/**
 * @file
 * Periodic registry snapshots as an exportable time series.
 *
 * TimeSeries is a plain (tick, values...) table with CSV and JSON
 * writers.  RegistrySampler drives one from the simulation event queue:
 * every period it reads the selected stats::Registry entries and
 * appends a row, so a run leaves behind the counters' trajectories
 * (not just their end-of-run values).
 */

#ifndef HYPERPLANE_TRACE_TIMESERIES_HH
#define HYPERPLANE_TRACE_TIMESERIES_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "stats/registry.hh"

namespace hyperplane {
namespace trace {

/** A sampled multi-column time series. */
class TimeSeries
{
  public:
    /** Set the column names (clears existing rows). */
    void setColumns(std::vector<std::string> columns);

    const std::vector<std::string> &columns() const { return columns_; }

    /** Append one row; @p values must match the column count. */
    void appendRow(Tick t, std::vector<double> values);

    std::size_t rows() const { return rows_.size(); }

    Tick rowTick(std::size_t i) const { return rows_[i].tick; }
    const std::vector<double> &rowValues(std::size_t i) const
    {
        return rows_[i].values;
    }

    /** CSV: header "tick,time_us,<columns...>", one line per row. */
    void writeCsv(std::ostream &os) const;

    /** JSON: {"columns":[...],"rows":[{"tick":..,"values":[..]},..]} */
    void writeJson(std::ostream &os) const;

    void clear() { rows_.clear(); }

  private:
    struct Row
    {
        Tick tick;
        std::vector<double> values;
    };

    std::vector<std::string> columns_;
    std::vector<Row> rows_;
};

/** Samples registry entries on a fixed simulated-time period. */
class RegistrySampler
{
  public:
    /**
     * @param eq       Event queue to schedule on.
     * @param registry Registry to snapshot (must outlive the sampler);
     *                 every entry registered at start() time is sampled.
     * @param period   Sampling period, ticks (>= 1).
     */
    RegistrySampler(EventQueue &eq, const stats::Registry &registry,
                    Tick period);

    /** Take the first sample and arm the periodic event. */
    void start();

    /** Stop rescheduling (pending events become no-ops). */
    void stop();

    const TimeSeries &series() const { return series_; }
    TimeSeries &series() { return series_; }

  private:
    void sampleOnce();
    void scheduleNext();

    EventQueue &eq_;
    const stats::Registry &registry_;
    std::vector<std::string> paths_;
    Tick period_;
    bool running_ = false;
    TimeSeries series_;
};

} // namespace trace
} // namespace hyperplane

#endif // HYPERPLANE_TRACE_TIMESERIES_HH
