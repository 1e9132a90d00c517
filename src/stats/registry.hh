/**
 * @file
 * A gem5-style statistics registry: components register their counters
 * under hierarchical dotted paths, and the registry renders a sorted
 * "path = value" report.  Used by SdpSystem::dumpStats() and by tools
 * that want machine-readable run summaries.
 *
 * Entries are kept sorted by path, so value() lookups are binary
 * searches — the time-series sampler calls value() once per column per
 * sample, which makes the previous linear scan O(paths * samples).
 * Duplicate registrations are detected at add() time: the first
 * registration wins and a warning names the offending path (previously
 * both entries survived, making value() ambiguous).
 */

#ifndef HYPERPLANE_STATS_REGISTRY_HH
#define HYPERPLANE_STATS_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "stats/counter.hh"

namespace hyperplane {
namespace stats {

/** Hierarchical stat registry (snapshot semantics: values are read at
 *  report() time). */
class Registry
{
  public:
    /** Register a counter under @p path ("mem.l1_hits"). */
    void add(const std::string &path, const Counter &counter);

    /** Register a computed scalar. */
    void addScalar(const std::string &path,
                   std::function<double()> getter);

    /** Register every counter of a group with a shared prefix. */
    void
    addGroup(const std::string &prefix,
             std::initializer_list<
                 std::reference_wrapper<const Counter>> counters)
    {
        for (const Counter &c : counters)
            add(prefix + "." + c.name(), c);
    }

    /** Number of registered entries. */
    std::size_t size() const { return entries_.size(); }

    /** True if @p path is registered. */
    bool has(const std::string &path) const;

    /** All registered paths, ascending. */
    std::vector<std::string> paths() const;

    /**
     * Render the report: one "path = value" line per entry, sorted by
     * path.
     */
    std::string report() const;

    /**
     * Render the report as one JSON object: {"path": value, ...},
     * keys ascending.  Non-finite values serialize as null.
     */
    std::string reportJson() const;

    /** Current value of a registered entry. @return NaN if unknown. */
    double value(const std::string &path) const;

    /**
     * Visit every entry in path order with its current value — one
     * getter call per entry, for renderers (Prometheus text, JSON) that
     * would otherwise pay a binary search per path.
     */
    void forEach(
        const std::function<void(const std::string &, double)> &fn)
        const;

  private:
    struct Entry
    {
        std::string path;
        std::function<double()> getter;
    };

    /** Sorted-insert with duplicate rejection (first wins + warning). */
    void insert(const std::string &path, std::function<double()> getter);

    /** Entries sorted ascending by path. */
    std::vector<Entry> entries_;
};

} // namespace stats
} // namespace hyperplane

#endif // HYPERPLANE_STATS_REGISTRY_HH
