/**
 * @file
 * Shard-table helpers shared by the three stateful handlers (private to
 * src/app).  Every table entry carries a lastSeenNs, and every shard is
 * a struct of stats::WriterCell counters plus tables, owned through
 * std::unique_ptr and touched by one caller at a time (see
 * StatefulHandler::handle()).
 */

#ifndef HYPERPLANE_APP_SHARD_TABLE_HH
#define HYPERPLANE_APP_SHARD_TABLE_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats/registry.hh"
#include "stats/single_writer.hh"

namespace hyperplane {
namespace app {

/** True when state last seen at @p lastNs has idled past @p timeoutNs. */
constexpr bool
idlePast(std::uint64_t nowNs, std::uint64_t lastNs, std::uint64_t timeoutNs)
{
    return nowNs > lastNs && nowNs - lastNs > timeoutNs;
}

/**
 * Look @p key up in @p table; an entry idle past @p timeoutNs is erased
 * (counted in @p expired) and reported as absent.
 */
template <typename Table>
typename Table::iterator
findLive(Table &table, const typename Table::key_type &key,
         std::uint64_t nowNs, std::uint64_t timeoutNs,
         stats::WriterCell &expired)
{
    auto it = table.find(key);
    if (it != table.end() &&
        idlePast(nowNs, it->second.lastSeenNs, timeoutNs)) {
        table.erase(it);
        expired.add();
        return table.end();
    }
    return it;
}

/**
 * Amortized shard sweep: once @p timeoutNs has passed since
 * @p lastSweepNs, erase every entry of @p table idle past @p timeoutNs
 * (counted in @p expired).  This bounds a table whose flows never
 * return.
 */
template <typename Table>
void
sweepAmortized(Table &table, std::uint64_t &lastSweepNs,
               std::uint64_t nowNs, std::uint64_t timeoutNs,
               stats::WriterCell &expired)
{
    if (!idlePast(nowNs, lastSweepNs, timeoutNs))
        return;
    lastSweepNs = nowNs;
    for (auto it = table.begin(); it != table.end();) {
        if (idlePast(nowNs, it->second.lastSeenNs, timeoutNs)) {
            it = table.erase(it);
            expired.add();
        } else {
            ++it;
        }
    }
}

/** One WriterCell summed across every shard (any thread). */
template <typename Shard>
std::uint64_t
sumShards(const std::vector<std::unique_ptr<Shard>> &shards,
          stats::WriterCell Shard::*cell)
{
    std::uint64_t n = 0;
    for (const auto &s : shards)
        n += ((*s).*cell).read();
    return n;
}

/** Register one scalar per (name suffix, cell), each a sum over shards. */
template <typename Shard>
void
registerShardCells(
    stats::Registry &reg, const std::string &prefix,
    const std::vector<std::unique_ptr<Shard>> &shards,
    std::initializer_list<std::pair<const char *, stats::WriterCell Shard::*>>
        cells)
{
    for (const auto &[name, cell] : cells) {
        reg.addScalar(prefix + name, [&shards, cell = cell] {
            return static_cast<double>(sumShards(shards, cell));
        });
    }
}

} // namespace app
} // namespace hyperplane

#endif // HYPERPLANE_APP_SHARD_TABLE_HH
